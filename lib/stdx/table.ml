type align = Left | Right

type t = { headers : string list; aligns : align list; mutable rows : string list list }

let create ~columns =
  { headers = List.map fst columns; aligns = List.map snd columns; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg "Table.add_row: row width differs from header";
  t.rows <- cells :: t.rows

let render t =
  let rows = List.rev t.rows in
  let widths = Array.of_list (List.map String.length t.headers) in
  let measure cells =
    List.iteri (fun i c -> if String.length c > widths.(i) then widths.(i) <- String.length c) cells
  in
  List.iter measure rows;
  let pad align width s =
    let fill = String.make (width - String.length s) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s
  in
  let buf = Buffer.create 256 in
  let line cells aligns =
    Buffer.add_string buf "| ";
    List.iteri
      (fun i (c, a) ->
        if i > 0 then Buffer.add_string buf " | ";
        Buffer.add_string buf (pad a widths.(i) c))
      (List.combine cells aligns);
    Buffer.add_string buf " |\n"
  in
  let separator () =
    Buffer.add_char buf '+';
    Array.iter (fun w -> Buffer.add_string buf (String.make (w + 2) '-'); Buffer.add_char buf '+') widths;
    Buffer.add_char buf '\n'
  in
  separator ();
  line t.headers (List.map (fun _ -> Left) t.headers);
  separator ();
  List.iter (fun cells -> line cells t.aligns) rows;
  separator ();
  Buffer.contents buf

let print t = print_string (render t)

let cell_f ?(decimals = 2) x = Printf.sprintf "%.*f" decimals x

let cell_i = string_of_int
