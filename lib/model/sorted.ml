(* An array that is already in order skips the sort: the generator's ids
   arrive ascending, and the check costs one pass. *)
let sort (a : int array) =
  let rec ascending k = k >= Array.length a || (a.(k - 1) <= a.(k) && ascending (k + 1)) in
  if not (ascending 1) then Array.stable_sort Int.compare a

let of_list key l =
  let a = Array.make (List.length l) 0 in
  List.iteri (fun i x -> a.(i) <- key x) l;
  sort a;
  a

let has_duplicate (a : int array) =
  let rec scan k = k < Array.length a && (a.(k - 1) = a.(k) || scan (k + 1)) in
  scan 1

let rec search (a : int array) x lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    if a.(mid) = x then mid else if a.(mid) < x then search a x (mid + 1) hi else search a x lo mid

(* Ids often run consecutively from the first one (a generator's
   subtasks, resources 0..n-1); then the value's offset from the first
   element is its position and the search is skipped. *)
let find a x =
  let n = Array.length a in
  if n = 0 then -1
  else
    let k = x - a.(0) in
    if k >= 0 && k < n && a.(k) = x then k else search a x 0 n

let mem a x = find a x >= 0
