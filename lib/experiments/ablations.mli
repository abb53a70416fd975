(** Ablations beyond the paper's figures, for the design choices the
    reproduction had to make (see DESIGN.md §4):

    - criticality threshold (the paper fixes 8 on its fanout scale; we
      sweep ours);
    - CDP decode penalty (the paper conservatively assumes 1 cycle);
    - issue-queue capacity;
    - fetch-queue depth. *)

type point = { label : string; speedup : float }

type result = {
  threshold : point list;       (** CritIC speedup per profiler threshold *)
  metric : point list;
      (** per chain-criticality metric — the paper's "higher order
          representations" future work (see {!Profiler.Metric}) *)
  cdp_penalty : point list;     (** per decode-penalty cycles *)
  iq_size : point list;         (** baseline IPC effect *)
  fetch_queue : point list;
  wrong_path : point list;
      (** trace-driven fidelity: effect of modelling wrong-path i-cache
          pollution after mispredictions *)
}

val jobs : ?apps:Workload.Profile.t list -> unit -> Harness.job list
(** The machine-configuration simulations [run] needs, for
    {!Harness.run_batch} prewarming.  The re-profiled variant jobs
    (threshold, metric) are left out: [run] submits them itself. *)

val run : ?apps:Workload.Profile.t list -> Harness.t -> result
(** Defaults to three representative mobile apps to bound runtime. *)

val render : result -> string
