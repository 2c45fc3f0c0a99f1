type counter = { c_labels : (string * string) list; mutable c_value : int }

type gauge = {
  mutable g_value : float;
  mutable g_at : float;  (* last-writer stamp for the shard merge; -inf = never stamped *)
}

type histogram = {
  bounds : float array;  (* strictly increasing upper bounds, +Inf implicit *)
  counts : int array;  (* non-cumulative per bucket; length = bounds + 1 *)
  mutable h_sum : float;
  mutable h_count : int;
}

type instance = Counter of counter | Gauge of gauge | Histogram of histogram

type family = {
  f_name : string;
  f_help : string;
  f_kind : string;  (* "counter" | "gauge" | "histogram" *)
  mutable instances : instance list;  (* reverse registration order *)
}

type t = {
  families : (string, family) Hashtbl.t;
  mutable order : family list;  (* reverse registration order *)
}

let default_buckets = [| 0.5; 1.; 2.5; 5.; 10.; 25.; 50.; 100.; 250.; 500.; 1000. |]

let create () = { families = Hashtbl.create 32; order = [] }

let normalize_labels labels =
  List.sort (fun (a, _) (b, _) -> String.compare a b) labels

(* Only counters carry labels. *)
let instance_labels = function Counter c -> c.c_labels | Gauge _ | Histogram _ -> []

let family t ~name ~help ~kind =
  match Hashtbl.find_opt t.families name with
  | Some f ->
    if not (String.equal f.f_kind kind) then
      invalid_arg
        (Printf.sprintf "Metrics: %s already registered as a %s, not a %s" name f.f_kind kind);
    f
  | None ->
    let f = { f_name = name; f_help = help; f_kind = kind; instances = [] } in
    Hashtbl.add t.families name f;
    t.order <- f :: t.order;
    f

let find_instance f labels =
  List.find_opt (fun i -> instance_labels i = labels) f.instances

let counter t ?(help = "") ?(labels = []) name =
  let labels = normalize_labels labels in
  let f = family t ~name ~help ~kind:"counter" in
  match find_instance f labels with
  | Some (Counter c) -> c
  | Some _ -> assert false
  | None ->
    let c = { c_labels = labels; c_value = 0 } in
    f.instances <- Counter c :: f.instances;
    c

let gauge t ?(help = "") name =
  let f = family t ~name ~help ~kind:"gauge" in
  match f.instances with
  | Gauge g :: _ -> g
  | _ :: _ -> assert false
  | [] ->
    let g = { g_value = 0.; g_at = neg_infinity } in
    f.instances <- Gauge g :: f.instances;
    g

let valid_bounds bounds =
  Array.length bounds > 0
  &&
  let ok = ref (Float.is_finite bounds.(0)) in
  for i = 1 to Array.length bounds - 1 do
    if not (Float.is_finite bounds.(i) && bounds.(i) > bounds.(i - 1)) then ok := false
  done;
  !ok

let histogram t ?(help = "") ?(buckets = default_buckets) name =
  if not (valid_bounds buckets) then
    invalid_arg "Metrics.histogram: bucket bounds must be finite and strictly increasing";
  let f = family t ~name ~help ~kind:"histogram" in
  match f.instances with
  | Histogram h :: _ ->
    if h.bounds <> buckets then
      invalid_arg (Printf.sprintf "Metrics.histogram: %s re-registered with a different layout" name);
    h
  | _ :: _ -> assert false
  | [] ->
    let h =
      {
        bounds = Array.copy buckets;
        counts = Array.make (Array.length buckets + 1) 0;
        h_sum = 0.;
        h_count = 0;
      }
    in
    f.instances <- Histogram h :: f.instances;
    h

let incr c = c.c_value <- c.c_value + 1

let add c n =
  if n < 0 then invalid_arg "Metrics.add: counters are monotone";
  c.c_value <- c.c_value + n

let set g v = g.g_value <- v

let set_at g ~at v =
  g.g_value <- v;
  g.g_at <- at

let observe h v =
  (* NaN falls through every [v <= bound] test into the +Inf bucket — it is
     still counted rather than silently lost. *)
  let n = Array.length h.bounds in
  let rec slot i = if i >= n then n else if v <= h.bounds.(i) then i else slot (i + 1) in
  let i = slot 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_sum <- h.h_sum +. v;
  h.h_count <- h.h_count + 1

let value c = c.c_value

let gauge_value g = g.g_value

let histogram_count h = h.h_count

let histogram_sum h = h.h_sum

let bucket_counts h =
  let acc = ref 0 in
  let cumulative =
    Array.to_list
      (Array.mapi
         (fun i bound ->
           acc := !acc + h.counts.(i);
           (bound, !acc))
         h.bounds)
  in
  cumulative @ [ (infinity, h.h_count) ]

let quantile h ~q =
  if h.h_count = 0 || Float.is_nan q || q < 0. || q > 1. then None
  else begin
    (* Prometheus-style bucket interpolation: find the first cumulative
       bucket holding the target rank, then interpolate linearly between
       its bounds. The open [+Inf] bucket has no upper edge to
       interpolate towards, so it reports the highest finite bound. *)
    let rank = q *. float_of_int h.h_count in
    let n = Array.length h.bounds in
    let rec find i cum =
      if i >= n then
        (* target rank lives in the +Inf bucket *)
        Some h.bounds.(n - 1)
      else
        let cum' = cum + h.counts.(i) in
        let in_bucket = h.counts.(i) in
        if float_of_int cum' >= rank && in_bucket > 0 then
          (* An empty bucket can only satisfy the rank test at [rank =
             cum] (notably q = 0 on an empty first bucket); skipping it
             lands on the first populated bucket, whose interpolation at
             [frac = 0] yields its lower edge — an attainable value,
             where the empty bucket's upper edge is not. *)
          let lo = if i = 0 then 0. else h.bounds.(i - 1) in
          let hi = h.bounds.(i) in
          let frac = (rank -. float_of_int cum) /. float_of_int in_bucket in
          Some (lo +. ((hi -. lo) *. Float.max 0. frac))
        else find (i + 1) cum'
    in
    find 0 0
  end

let summary ?(name = "") h =
  if h.h_count = 0 then Printf.sprintf "%s: no observations" (if name = "" then "histogram" else name)
  else begin
    let pct q = match quantile h ~q with Some v -> v | None -> nan in
    Printf.sprintf "%scount=%d sum=%.3f mean=%.3f p50=%.3f p90=%.3f p99=%.3f"
      (if name = "" then "" else name ^ ": ")
      h.h_count h.h_sum
      (h.h_sum /. float_of_int h.h_count)
      (pct 0.5) (pct 0.9) (pct 0.99)
  end

let find t ?(labels = []) name =
  let labels = normalize_labels labels in
  match Hashtbl.find_opt t.families name with
  | None -> None
  | Some f -> find_instance f labels

let find_counter t ?labels name =
  match find t ?labels name with Some (Counter c) -> Some c | _ -> None

let find_gauge t name = match find t name with Some (Gauge g) -> Some g | _ -> None

let find_histogram t name = match find t name with Some (Histogram h) -> Some h | _ -> None

(* --- shard merge ------------------------------------------------------ *)

(* Barrier-time snapshot merge of per-shard registries. Counters sum,
   histograms add bucket-wise (find-or-create re-raises on a layout
   mismatch), gauges resolve last-writer-wins by (stamp, shard index in
   the input list). The inputs are read-only; family order is shard 0's
   with later shards' novel families appended. *)
let merge ts =
  let out = create () in
  let gauge_src = Hashtbl.create 16 in
  List.iteri
    (fun shard t ->
      List.iter
        (fun f ->
          List.iter
            (fun inst ->
              match inst with
              | Counter c ->
                let c' = counter out ~help:f.f_help ~labels:c.c_labels f.f_name in
                c'.c_value <- c'.c_value + c.c_value
              | Gauge g ->
                let g' = gauge out ~help:f.f_help f.f_name in
                let key = f.f_name in
                let take =
                  match Hashtbl.find_opt gauge_src key with
                  | None -> true
                  | Some (at0, _) -> g.g_at >= at0
                  (* shards are visited in index order, so >= on the stamp
                     keeps the highest (at, shard) writer *)
                in
                if take then begin
                  Hashtbl.replace gauge_src key (g.g_at, shard);
                  g'.g_value <- g.g_value;
                  g'.g_at <- g.g_at
                end
              | Histogram h ->
                let h' =
                  histogram out ~help:f.f_help ~buckets:h.bounds f.f_name
                in
                Array.iteri (fun i n -> h'.counts.(i) <- h'.counts.(i) + n) h.counts;
                h'.h_sum <- h'.h_sum +. h.h_sum;
                h'.h_count <- h'.h_count + h.h_count)
            (List.rev f.instances))
        (List.rev t.order))
    ts;
  out

(* --- Prometheus text exposition -------------------------------------- *)

let escape_label_value s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_labels buf = function
  | [] -> ()
  | labels ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf k;
        Buffer.add_string buf "=\"";
        Buffer.add_string buf (escape_label_value v);
        Buffer.add_char buf '"')
      labels;
    Buffer.add_char buf '}'

let render_float x =
  if x = infinity then "+Inf"
  else if x = neg_infinity then "-Inf"
  else if Float.is_nan x then "NaN"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

(* HELP text escapes only backslash and newline per the text format
   (quotes are legal there, unlike in label values). *)
let escape_help s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let expose t =
  let buf = Buffer.create 4096 in
  List.iter
    (fun f ->
      if not (String.equal f.f_help "") then
        Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" f.f_name (escape_help f.f_help));
      Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" f.f_name f.f_kind);
      let instances =
        List.sort
          (fun a b -> compare (instance_labels a) (instance_labels b))
          (List.rev f.instances)
      in
      List.iter
        (fun instance ->
          match instance with
          | Counter c ->
            Buffer.add_string buf f.f_name;
            render_labels buf c.c_labels;
            Buffer.add_string buf (Printf.sprintf " %d\n" c.c_value)
          | Gauge g ->
            Buffer.add_string buf f.f_name;
            Buffer.add_string buf (Printf.sprintf " %s\n" (render_float g.g_value))
          | Histogram h ->
            List.iter
              (fun (bound, count) ->
                Buffer.add_string buf f.f_name;
                Buffer.add_string buf "_bucket";
                render_labels buf [ ("le", render_float bound) ];
                Buffer.add_string buf (Printf.sprintf " %d\n" count))
              (bucket_counts h);
            Buffer.add_string buf f.f_name;
            Buffer.add_string buf "_sum";
            Buffer.add_string buf (Printf.sprintf " %s\n" (render_float h.h_sum));
            Buffer.add_string buf f.f_name;
            Buffer.add_string buf "_count";
            Buffer.add_string buf (Printf.sprintf " %d\n" h.h_count))
        instances)
    (List.rev t.order);
  Buffer.contents buf
