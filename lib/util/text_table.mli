(** Plain-text table rendering for experiment and benchmark reports. *)

type align = Left | Right

val render : ?aligns:align list -> header:string list -> string list list -> string
(** [render ~header rows] lays the rows out in aligned columns with a
    separator rule under the header.  [aligns] defaults to left for the
    first column and right for the rest.  Ragged rows are padded with
    empty cells. *)

val render_kv : (string * string) list -> string
(** Two-column key/value rendering without a header. *)

val bar_chart : ?width:int -> (string * float) list -> string
(** Horizontal ASCII bar chart: one row per (label, value), bars scaled
    to the largest absolute value ([width] characters, default 40).
    Negative values render to the left marker; each value is labelled as
    a percentage with one decimal. *)
