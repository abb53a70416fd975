(** Typed metric registry: counters, gauges and log-bucketed histograms.

    The registry is the aggregation substrate of the observability
    layer: every {!Probe} owns one, the experiment harness merges the
    per-job registries of a sweep, and bench embeds histogram summaries
    in BENCH_results.json.  Design constraints, in order:

    - {b O(1) record.}  [incr]/[add]/[set]/[observe] touch one mutable
      record; [observe] additionally computes a power-of-two bucket
      index with a constant number of shifts.  Recording never
      allocates.
    - {b Deterministic snapshots.}  [snapshot]/[to_json]/[render] sort
      metrics by name, so two registries with equal contents produce
      byte-identical output regardless of creation or merge order.
    - {b Order-insensitive merge.}  Counter merge adds, gauge merge
      takes the maximum, histogram merge adds bucket-wise — all
      commutative and associative, so folding per-job registries in any
      pool completion order yields the same aggregate (the qcheck suite
      locks this down).

    A name is permanently bound to the kind it was first created with;
    re-requesting it with a different kind raises [Invalid_argument]. *)

type t

type counter
type gauge
type histogram

val create : unit -> t

(** {2 Recording} *)

val counter : t -> string -> counter
(** Get or create the counter [name] (monotone sum; merge adds). *)

val incr : counter -> unit
val add : counter -> int -> unit

val gauge : t -> string -> gauge
(** Get or create the gauge [name] (last-set value; merge takes max, so
    use gauges for level/high-water readings where max is the right
    cross-job aggregate). *)

val set : gauge -> int -> unit
val set_max : gauge -> int -> unit
(** [set_max g v] is [set g v] only when [v] exceeds the current value. *)

val histogram : t -> string -> histogram
(** Get or create the histogram [name]: 64 power-of-two buckets (bucket
    [b >= 1] holds values in [[2^(b-1), 2^b - 1]], bucket 0 holds
    [v <= 0]), exact count/sum/max. *)

val observe : histogram -> int -> unit

val hist_count : histogram -> int
val hist_max : histogram -> int

val quantile : histogram -> float -> int
(** [quantile h q] for [q] in [[0, 1]]: the upper bound of the bucket
    holding the [ceil (q * count)]-th smallest observation, capped at
    the exact maximum.  0 for an empty histogram.  p50/p90/p99 are
    [quantile h 0.5] etc. *)

(** {2 Aggregation and output} *)

val merge_into : into:t -> t -> unit
(** Fold [src] into [into]: counters add, gauges max, histograms add
    bucket-wise.  Metrics missing from [into] are created.  Raises
    [Invalid_argument] if a name is bound to different kinds. *)

type value =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of {
      count : int;
      sum : int;
      max : int;
      p50 : int;
      p90 : int;
      p99 : int;
    }

val snapshot : t -> (string * value) list
(** Every metric, sorted by name. *)

val to_json : t -> string
(** Deterministic JSON object with ["counters"], ["gauges"] and
    ["histograms"] members, names sorted.  Equal snapshots produce
    byte-identical strings. *)

val render : t -> string
(** Human-readable two-column table (sorted). *)

val is_empty : t -> bool
