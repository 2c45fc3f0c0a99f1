let glyphs = [| '1'; '2'; '3'; '4'; '5'; '6'; '7'; '8'; '9' |]

let width = 72

let height = 16

let render ?title series =
  let points = List.concat_map snd series in
  let buf = Buffer.create 1024 in
  (match title with
  | Some t ->
    Buffer.add_string buf t;
    Buffer.add_char buf '\n'
  | None -> ());
  if points = [] then begin
    Buffer.add_string buf "(no data)\n";
    Buffer.contents buf
  end
  else begin
    let xmin = List.fold_left (fun acc (x, _) -> Float.min acc x) infinity points in
    let xmax = List.fold_left (fun acc (x, _) -> Float.max acc x) neg_infinity points in
    let ymin = List.fold_left (fun acc (_, y) -> Float.min acc y) infinity points in
    let ymax = List.fold_left (fun acc (_, y) -> Float.max acc y) neg_infinity points in
    let xspan = if xmax > xmin then xmax -. xmin else 1. in
    let yspan = if ymax > ymin then ymax -. ymin else 1. in
    let canvas = Array.make_matrix height width ' ' in
    let plot_series idx (_, pts) =
      let glyph = glyphs.(idx mod Array.length glyphs) in
      let place (x, y) =
        let col = int_of_float ((x -. xmin) /. xspan *. float_of_int (width - 1)) in
        let row = int_of_float ((y -. ymin) /. yspan *. float_of_int (height - 1)) in
        let row = height - 1 - row in
        if row >= 0 && row < height && col >= 0 && col < width then begin
          let existing = canvas.(row).(col) in
          canvas.(row).(col) <- (if existing = ' ' || existing = glyph then glyph else '#')
        end
      in
      List.iter place pts
    in
    List.iteri plot_series series;
    let label_width = 11 in
    let add_line label row =
      Buffer.add_string buf (Printf.sprintf "%*s |" label_width label);
      Array.iter (Buffer.add_char buf) row;
      Buffer.add_char buf '\n'
    in
    Array.iteri
      (fun i row ->
        let label =
          if i = 0 then Printf.sprintf "%.4g" ymax
          else if i = height - 1 then Printf.sprintf "%.4g" ymin
          else ""
        in
        add_line label row)
      canvas;
    Buffer.add_string buf (Printf.sprintf "%*s +%s\n" label_width "" (String.make width '-'));
    let xmin_label = Printf.sprintf "%.4g" xmin and xmax_label = Printf.sprintf "%.4g" xmax in
    let gap = Stdlib.max 1 (width - String.length xmin_label - String.length xmax_label) in
    Buffer.add_string buf
      (Printf.sprintf "%*s %s%s%s\n" label_width "" xmin_label (String.make gap ' ') xmax_label);
    let legend =
      List.mapi
        (fun i (name, _) -> Printf.sprintf "[%c] %s" glyphs.(i mod Array.length glyphs) name)
        series
    in
    Buffer.add_string buf ("legend: " ^ String.concat "  " legend ^ "\n");
    Buffer.contents buf
  end
