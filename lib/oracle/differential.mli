(** Differential harness: pairs of independent implementations checked
    against each other, reporting the first divergence as an actionable
    message.

    The comparison chain — a green {!check_prepared} means all of these
    agree on a program's architectural behaviour:
    - {!check_walk}: {!Prog.Walk.path_for_instrs} vs the golden model's
      independent walk;
    - {!check_trace}: {!Prog.Trace.expand} vs the golden model's commit
      log (pcs, uids, memory addresses, branch outcomes, work counts);
    - {!check_cpu_trace}: {!Pipeline.Cpu.run_stream} retirement stream (with
      [~checks:true] invariants armed) vs the trace minus CDP markers,
      plus statistics accounting identities;
    - {!check_transform_pair}: per-block commit digests of a transformed
      program vs its original. *)

val configs : (string * Pipeline.Config.t) list
(** Named machine variants the sweep crosses programs with: Table I,
    2×-front-end, 4×-i-cache + BackendPrio, a narrow 2-wide machine,
    free CDP + EFetch, perfect branch + critical-load prefetch, and
    wrong-path fetch. *)

val sample_config : int -> string * Pipeline.Config.t
(** Deterministically pick one of {!configs} from a seed. *)

val check_walk :
  Prog.Program.t -> seed:int -> instrs:int -> (unit, string) result

val check_trace :
  Prog.Program.t ->
  seed:int ->
  path:Prog.Walk.path ->
  (Interp.result, string) result
(** Expand the trace and run the golden model over the same path;
    compare event-by-event.  Returns the oracle result on success. *)

val check_cpu_trace :
  ?warm:bool ->
  config:Pipeline.Config.t ->
  Prog.Trace.t ->
  (int, string) result
(** Simulate with invariants armed and the commit observer attached;
    the retirement stream must be exactly the trace minus CDP markers,
    in order, and the statistics must satisfy the accounting
    identities.  Returns the number of retirements compared. *)

val check_pack :
  Prog.Program.t ->
  seed:int ->
  path:Prog.Walk.path ->
  (int, string) result
(** Record the walk into a binary trace pack ({!Prog.Trace.Pack}) in a
    temp file, replay it through the mmap cursor, and require the
    replayed events to be bit-identical to the live walk, field for
    field.  Returns the number of events compared.  Run for the
    baseline and for every transform variant by {!check_prepared}. *)

val check_transform_pair :
  original:Prog.Program.t ->
  transformed:Prog.Program.t ->
  seed:int ->
  path:Prog.Walk.path ->
  (unit, string) result
(** Golden-model equivalence of two program versions over the same
    walk: per-block-instance commit digests and final register file
    must match ({!Commit_log.arch_equivalent}). *)

type prepared = {
  program : Prog.Program.t;
  seed : int;
  instrs : int;
  path : Prog.Walk.path;
  trace : Prog.Trace.t;
  db : Profiler.Critic_db.t;
}

val prepare : ?instrs:int -> Prog.Program.t -> seed:int -> prepared
(** Walk, expand and profile a program ([instrs] defaults to 2000 —
    fuzz-sized runs). *)

val transform_variants : prepared -> (string * Prog.Program.t) list
(** The compiler pipelines under test, applied to the prepared program:
    hoist, critic, critic_ideal, critic_branches, narrow_only, opp16,
    compress and opp16∘critic (every semantics-preserving scheme). *)

val pipeline_variants :
  prepared ->
  (string * Transform.Pass.env * Transform.Pass.t list) list
(** The nanopass pipelines under per-pass test: the canonical list for
    every switch mode (hoist, critic, critic_ideal, critic_branches,
    macro) plus the hybrid lists (narrow_only, narrow_before_hoist). *)

val check_pipeline :
  prepared ->
  string * Transform.Pass.env * Transform.Pass.t list ->
  (Prog.Program.t, string) result
(** Run one pass list with the architectural checker armed after
    {e every individual pass}: each intermediate program must be
    dataflow-equivalent to the source per block
    ({!Transform.Verify.check_pass}, which names the first divergent
    block and uid) and golden-model equivalent over the prepared walk
    ({!check_transform_pair}).  A failure is reported as
    ["[variant/pass] detail"], attributing the divergence to the exact
    stage that introduced it. *)

val check_pipelines : prepared -> (int, string) result
(** {!check_pipeline} over every {!pipeline_variants} entry; returns the
    number of pipelines checked. *)

val check_variant :
  ?configs:(string * Pipeline.Config.t) list ->
  prepared ->
  string * Prog.Program.t ->
  (int, string) result
(** Full differential for one transformed variant:
    [Verify.program_equivalent], golden-model equivalence, trace
    agreement, then simulator agreement per config.  Error messages are
    prefixed with the variant (and config) name. *)

val check_prepared :
  ?configs:(string * Pipeline.Config.t) list ->
  ?variant_configs:(string * Pipeline.Config.t) list ->
  prepared ->
  (int, string) result
(** The whole suite on one program: walk, baseline trace, baseline
    simulation across [configs], and every transform variant across [variant_configs] (default: first and last
    of [configs]).  Returns the total number of retirements compared. *)

val check_program :
  ?configs:(string * Pipeline.Config.t) list ->
  ?variant_configs:(string * Pipeline.Config.t) list ->
  ?instrs:int ->
  Prog.Program.t ->
  seed:int ->
  (int, string) result
(** [prepare] + [check_prepared]. *)
