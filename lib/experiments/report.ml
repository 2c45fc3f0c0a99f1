let header title =
  let bar = String.make 72 '=' in
  Printf.sprintf "%s\n%s\n%s\n" bar title bar

let deviation ~paper ~measured =
  if paper = 0. then if measured = 0. then 0. else infinity
  else (measured -. paper) /. Float.abs paper

let paper_vs_measured ~rows () =
  let columns =
    [ ("", Lla_stdx.Table.Left); ("paper", Lla_stdx.Table.Right); ("measured", Lla_stdx.Table.Right);
      ("deviation", Lla_stdx.Table.Right) ]
  in
  let table = Lla_stdx.Table.create ~columns in
  List.iter
    (fun (label, paper, measured) ->
      Lla_stdx.Table.add_row table
        [
          label;
          Lla_stdx.Table.cell_f ~decimals:2 paper;
          Lla_stdx.Table.cell_f ~decimals:2 measured;
          Printf.sprintf "%+.1f%%" (100. *. deviation ~paper ~measured);
        ])
    rows;
  Lla_stdx.Table.render table

let series_block ~title series =
  let plotted =
    List.map (fun (name, s) -> (name, Lla_stdx.Series.downsample s ~max_points:60)) series
  in
  let plot = Lla_stdx.Ascii_plot.render ~title plotted in
  let appendix =
    List.map
      (fun (name, points) ->
        let cells =
          List.map (fun (x, y) -> Printf.sprintf "(%.0f, %.2f)" x y)
            (match points with
            | _ :: _ when List.length points > 8 ->
              (* First, a middle sample, and last few points. *)
              let arr = Array.of_list points in
              let n = Array.length arr in
              [ arr.(0); arr.(n / 4); arr.(n / 2); arr.(3 * n / 4); arr.(n - 1) ]
            | pts -> pts)
        in
        Printf.sprintf "  %s: %s" name (String.concat " " cells))
      plotted
  in
  plot ^ String.concat "\n" appendix ^ "\n"
