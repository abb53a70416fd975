(** End-to-end runs: workload → profile → transform → simulate.

    An {!app_context} packages everything derived once per application:
    the generated program, the control-flow path (fixed across schemes,
    so every scheme replays identical work) and the CritIC database.
    Traces are never materialized on this path — profiling and
    simulation both pull the event stream ({!Prog.Trace.Stream}) and run
    in O(window) memory, so the instruction budget can grow without the
    context's footprint following it.  {!stats} evaluates any scheme on
    any machine configuration. *)

type app_context = {
  profile : Workload.Profile.t;
  program : Prog.Program.t;
  seed : int;
  path : Prog.Walk.path;
  event_count : int;      (** events the baseline stream yields *)
  db : Profiler.Critic_db.t;
  programs : (Scheme.t, Prog.Program.t) Util.Memo.t;
      (** transformed programs ({!transformed}): a one-slot memo, sized
          for the hot access pattern — one scheme re-simulated across
          machine configurations, interleaved with the baseline, which
          bypasses it *)
  heats : (Scheme.t, int array) Util.Memo.t;
      (** block temperatures per scheme ({!heat}), unbounded *)
  ckey : string;
      (** content fingerprint of everything this context was prepared
          from ({!context_key}: app profile, [instrs], [sample] and the
          build) — the key derived artifacts chain from *)
}

val default_instrs : int
(** Dynamic work instructions per run (120_000): roughly one of the
    paper's 100 execution samples, after our 4× trace-length scale-down
    for laptop turnaround (documented in DESIGN.md). *)

val prepare :
  ?store:Store.t -> ?instrs:int -> ?sample:int -> Workload.Profile.t ->
  app_context
(** Generate, walk and profile one application (default profiler
    settings: {!Profiler.Profile_run.profile_stream}; the re-profiled
    programs of the sensitivity studies are {!variant}s).  [sample]
    (default 0) selects one of the independent execution samples of the
    same program — the equivalent of the paper's 100 random samples per
    app: different control-flow walk, same code.

    With [?store], the expensive derivation (generate → walk → profile)
    is cached under {!context_key}: a hit deserializes the prepared
    artifacts instead of recomputing them.  Corrupt or mismatched
    entries silently fall back to recompute. *)

val context_key : ?instrs:int -> ?sample:int -> Workload.Profile.t -> Store.key
(** The store key {!prepare} uses: {!Store.key} of the profile, [instrs]
    and [sample], so an edit to any of them — or a rebuild — misses.
    Exposed so tests and tools can probe or invalidate specific
    entries. *)

val transformed : app_context -> Scheme.t -> Prog.Program.t
(** The program a scheme's compiler pipeline produces, memoized in the
    context's one-slot [programs] memo: consecutive requests for the
    same scheme — e.g. under several machine configurations, or from
    concurrent harness jobs — run the compiler pipeline once (see
    {!transform_count}). *)

val transform_count : app_context -> int
(** Compiler-pipeline results this context has kept (the [programs]
    memo's insert count) — the cache-effectiveness observable used by
    the regression tests. *)

val stream : app_context -> Scheme.t -> Prog.Trace.Stream.cursor
(** A fresh cursor over the scheme's event stream — the scheme's
    program expanded lazily over the *same* block path. *)

val source : app_context -> Scheme.t -> Pipeline.Cpu.source
(** The replayable form of {!stream}, as the simulator consumes it. *)

val trace_of : app_context -> Scheme.t -> Prog.Trace.t
(** Materialize the scheme's event stream into an array — the adapter
    for consumers that genuinely need random access (whole-trace DFGs,
    characterization).  O(trace) memory and uncached: transient use
    only. *)

val heat : app_context -> Scheme.t -> int array
(** Per-block temperatures (0 hot .. 3 cold) of the scheme's dynamic
    stream, from {!Profiler.Heat} — the table TRRIP configurations feed
    to {!Pipeline.Cpu.run_stream} as [?itemp].  Memoized per scheme on
    the context. *)

type variant =
  | Exact_length of int
      (** the context's DB cut to chains of exactly [n] members
          ({!Profiler.Critic_db.exact_length}), compiled with
          [max_len = n] — Fig. 12a *)
  | Fraction of float
      (** the baseline stream re-profiled over its leading fraction —
          Fig. 12b *)
  | Threshold of float  (** re-profiled with this criticality threshold *)
  | Metric of Profiler.Metric.t
      (** re-profiled with this chain-criticality metric *)
(** A CritIC program variant: the scheme's CritIC pass run over a
    different database — the sensitivity studies' programs. *)

val stats :
  ?config:Pipeline.Config.t ->
  ?probe:Telemetry.Probe.t ->
  ?variant:variant ->
  app_context ->
  Scheme.t ->
  Pipeline.Stats.t
(** Simulate a scheme (default machine: Table I), streaming.  [probe]
    attaches a telemetry observer; the returned stats are bit-identical
    with or without one (see {!Pipeline.Cpu.run_stream}).  When the
    configuration selects the TRRIP i-cache policy, the program's block
    temperatures ({!heat}) are computed and threaded through
    automatically.  [variant] simulates that variant of the scheme's
    program instead (built afresh, not cached); raises
    [Invalid_argument] for a scheme the CritIC pass does not build. *)

val speedup : base:Pipeline.Stats.t -> Pipeline.Stats.t -> float
(** Fractional cycle-count improvement over [base] for the same work. *)

val energy :
  base:Pipeline.Stats.t ->
  Pipeline.Stats.t ->
  Energy.Model.saving
