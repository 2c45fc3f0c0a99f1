(** Tiny ASCII line plots, used by the benchmark harness to show the
    *shape* of the paper's figures (convergence curves, oscillations)
    directly in the terminal. *)

val render :
  ?title:string ->
  (string * (float * float) list) list ->
  string
(** [render series] plots each named series on a shared canvas
    (72 x 16 characters). Each series is drawn
    with its own glyph ([1], [2], ...; overlapping points show [#]) and a
    legend line maps glyphs to names. Empty input or all-empty series
    renders an explanatory placeholder. *)
