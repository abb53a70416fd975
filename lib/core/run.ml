type app_context = {
  profile : Workload.Profile.t;
  program : Prog.Program.t;
  seed : int;
  path : Prog.Walk.path;
  event_count : int;
  db : Profiler.Critic_db.t;
  programs : (Scheme.t, Prog.Program.t) Util.Memo.t;
  heats : (Scheme.t, int array) Util.Memo.t;
  ckey : string;
}

let default_instrs = 120_000

let context_key ?(instrs = default_instrs) ?(sample = 0)
    (profile : Workload.Profile.t) =
  Store.key ~kind:"context" (profile, instrs, sample)

(* The tuple a context entry marshals: everything [prepare] derives.
   The memos are rebuilt fresh (they hold a mutex). *)
type context_payload =
  Prog.Program.t * int * Prog.Walk.path * int * Profiler.Critic_db.t

let prepare ?store ?(instrs = default_instrs) ?(sample = 0)
    (profile : Workload.Profile.t) =
  let key = context_key ~instrs ~sample profile in
  let build () : context_payload =
    let program = Workload.Gen.program profile in
    let seed = (profile.seed lxor 0x5EED) + (sample * 0x1000193) in
    let path = Prog.Walk.path_for_instrs program ~seed ~instrs in
    let event_count = Prog.Trace.length_of_path program path in
    let db =
      Profiler.Profile_run.profile_stream ~total_events:event_count
        (Prog.Trace.Stream.of_program program ~seed path)
    in
    (program, seed, path, event_count, db)
  in
  let program, seed, path, event_count, db = Store.memo store key build in
  {
    profile;
    program;
    seed;
    path;
    event_count;
    db;
    (* Transformed programs of code-heavy apps run to several MB, so
       retaining every scheme a sweep visits would dominate the heap; one
       slot covers the hot access pattern (one scheme re-simulated across
       machine configs, interleaved with the baseline, which bypasses the
       memo) at the price of re-running a cheap compiler pass when a
       context alternates between transformed schemes.  Block-temperature
       tables are a few bytes per block, so they are not bounded. *)
    programs = Util.Memo.create ~capacity:1 ();
    heats = Util.Memo.create ();
    ckey = Store.key_digest key;
  }

(* The CritIC pass options behind each scheme the pass builds. *)
let critic_options : Scheme.t -> Transform.Critic_pass.options option =
  let open Transform.Critic_pass in
  function
  | Scheme.Hoist -> Some { default_options with mode = Hoist_only }
  | Scheme.Critic -> Some default_options
  | Scheme.Critic_ideal -> Some ideal_options
  | Scheme.Critic_branches -> Some { default_options with mode = Branches }
  | Scheme.Macro_ideal ->
    Some { ideal_options with mode = Fused_macro; ideal = false }
  | Scheme.Baseline | Scheme.Opp16 | Scheme.Compress | Scheme.Opp16_critic
  | Scheme.Narrow_only | Scheme.Critic_reorder ->
    None

let rec transformed ctx (scheme : Scheme.t) =
  let compute () =
    match critic_options scheme with
    | Some options ->
      fst (Transform.Critic_pass.apply ~options ctx.db ctx.program)
    | None -> (
      match scheme with
      | Scheme.Opp16 -> fst (Transform.Thumb.opp16 ctx.program)
      | Scheme.Compress -> fst (Transform.Thumb.compress ctx.program)
      | Scheme.Opp16_critic ->
        fst (Transform.Thumb.opp16 (transformed ctx Scheme.Critic))
      | Scheme.Narrow_only ->
        fst
          (Transform.Pipeline.run_exn
             (Transform.Pass.env ctx.db)
             Transform.Pipeline.narrow_only ctx.program)
      | Scheme.Critic_reorder ->
        fst
          (Transform.Pipeline.run_exn
             (Transform.Pass.env ctx.db)
             Transform.Pipeline.reordered ctx.program)
      | _ -> assert false)
  in
  match scheme with
  | Scheme.Baseline -> ctx.program
  | _ -> Util.Memo.find_or_add ctx.programs scheme compute

let transform_count ctx = Util.Memo.inserts ctx.programs

let stream ctx scheme =
  Prog.Trace.Stream.of_program (transformed ctx scheme) ~seed:ctx.seed
    ctx.path

let source ctx scheme : Pipeline.Cpu.source = fun () -> stream ctx scheme

let trace_of ctx scheme =
  Prog.Trace.expand (transformed ctx scheme) ~seed:ctx.seed ctx.path

let temperatures program source =
  Profiler.Heat.temperatures
    (Profiler.Heat.profile ~num_blocks:(Prog.Program.num_blocks program)
       (source ()))

let heat ctx scheme =
  Util.Memo.find_or_add ctx.heats scheme (fun () ->
      temperatures (transformed ctx scheme) (source ctx scheme))

type variant =
  | Exact_length of int
  | Fraction of float
  | Threshold of float
  | Metric of Profiler.Metric.t

(* Variant programs are single-use (each sensitivity point simulates
   once), so they bypass the program memo. *)
let variant_program ctx scheme variant =
  let options =
    match critic_options scheme with
    | Some o -> o
    | None ->
      invalid_arg ("Run.stats: no CritIC variant of " ^ Scheme.name scheme)
  in
  let reprofile ?fraction ?threshold ?metric () =
    Profiler.Profile_run.profile_stream ?fraction ?threshold ?metric
      ~total_events:ctx.event_count
      (stream ctx Scheme.Baseline)
  in
  let db, options =
    match variant with
    | Exact_length n ->
      (Profiler.Critic_db.exact_length n ctx.db, { options with max_len = n })
    | Fraction fraction -> (reprofile ~fraction (), options)
    | Threshold threshold -> (reprofile ~threshold (), options)
    | Metric metric -> (reprofile ~metric (), options)
  in
  fst (Transform.Critic_pass.apply ~options db ctx.program)

let stats ?(config = Pipeline.Config.table_i) ?probe ?variant ctx scheme =
  let source, temps =
    match variant with
    | None -> (source ctx scheme, fun () -> heat ctx scheme)
    | Some v ->
      let p = variant_program ctx scheme v in
      let src () = Prog.Trace.Stream.of_program p ~seed:ctx.seed ctx.path in
      (src, fun () -> temperatures p src)
  in
  (* The TRRIP policy is the one consumer of block temperatures; other
     policies ignore the hint, so the table is only computed (once per
     scheme) when it can matter. *)
  let itemp =
    if config.Pipeline.Config.mem.l1i_policy = Mem.Replacement.Trrip then
      Some (temps ())
    else None
  in
  Pipeline.Cpu.run_stream ?probe ?itemp config source

let speedup ~base (st : Pipeline.Stats.t) =
  (float_of_int base.Pipeline.Stats.cycles /. float_of_int st.cycles) -. 1.0

let energy ~base st =
  Energy.Model.saving ~base:(Energy.Model.of_stats base)
    ~optimized:(Energy.Model.of_stats st)
