type scheme_cache = {
  cache_lock : Mutex.t;
  (* The last transformed program.  Transformed programs of code-heavy
     apps run to several MB, so retaining every scheme a sweep visits
     would dominate the heap; one slot covers the hot access pattern
     (one scheme re-simulated across machine configs, interleaved with
     baseline — which lives outside the cache) at the price of
     re-running a cheap compiler pass when a context alternates between
     transformed schemes. *)
  mutable last : (Scheme.t * Prog.Program.t) option;
  mutable transforms : int;
  (* Per-scheme block-temperature tables for the TRRIP i-cache policy:
     a few bytes per block, so not bounded.  Derived state, never
     marshalled with the context payload. *)
  mutable heats : (Scheme.t * int array) list;
}

type app_context = {
  profile : Workload.Profile.t;
  program : Prog.Program.t;
  seed : int;
  path : Prog.Walk.path;
  event_count : int;
  db : Profiler.Critic_db.t;
  scheme_cache : scheme_cache;
  ckey : string;
}

let default_instrs = 120_000

(* Bump whenever the marshalled shape of the cached tuple — or of any
   type reachable from it — changes.  [Store.code_version] already
   invalidates on every commit; this constant covers dirty-worktree
   edits, where the git description stays "<sha>-dirty" across edits. *)
let context_format = "critics-ctx-1"

let context_key ?(instrs = default_instrs) ?(sample = 0)
    ?(profile_window = 512) ?threshold ?(profile_fraction = 1.0)
    (profile : Workload.Profile.t) =
  Store.key ~kind:"context"
    [
      context_format;
      Marshal.to_string profile [];
      string_of_int instrs;
      string_of_int sample;
      string_of_int profile_window;
      (match threshold with
      | None -> "default"
      | Some f -> Printf.sprintf "%h" f);
      Printf.sprintf "%h" profile_fraction;
    ]

(* The tuple a context entry marshals: everything [prepare] derives.
   The scheme cache is rebuilt fresh (it holds a mutex). *)
type context_payload =
  Prog.Program.t * int * Prog.Walk.path * int * Profiler.Critic_db.t

let prepare ?store ?(instrs = default_instrs) ?(sample = 0)
    ?(profile_window = 512) ?threshold ?(profile_fraction = 1.0)
    (profile : Workload.Profile.t) =
  let key =
    context_key ~instrs ~sample ~profile_window ?threshold ~profile_fraction
      profile
  in
  let build () : context_payload =
    let program = Workload.Gen.program profile in
    let seed = (profile.seed lxor 0x5EED) + (sample * 0x1000193) in
    let path = Prog.Walk.path_for_instrs program ~seed ~instrs in
    let event_count = Prog.Trace.length_of_path program path in
    let db =
      Profiler.Profile_run.profile_stream ~window:profile_window ?threshold
        ~fraction:profile_fraction ~total_events:event_count
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
    scheme_cache =
      { cache_lock = Mutex.create (); last = None; transforms = 0; heats = [] };
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
  let cached c =
    match c.last with Some (s, p) when s = scheme -> Some p | _ -> None
  in
  match scheme with
  | Scheme.Baseline -> ctx.program
  | _ -> (
    (* The mutex makes contexts shareable across the parallel harness's
       domains; passes are deterministic, so a lost race recomputes an
       identical program and the first write wins. *)
    let c = ctx.scheme_cache in
    Mutex.lock c.cache_lock;
    let hit = cached c in
    Mutex.unlock c.cache_lock;
    match hit with
    | Some p -> p
    | None ->
      let p = compute () in
      Mutex.lock c.cache_lock;
      let p =
        match cached c with
        | Some winner -> winner
        | None ->
          c.transforms <- c.transforms + 1;
          c.last <- Some (scheme, p);
          p
      in
      Mutex.unlock c.cache_lock;
      p)

let transform_count ctx = ctx.scheme_cache.transforms

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

(* Block temperatures of a scheme's dynamic stream (Profiler.Heat),
   memoized per scheme: the profile is deterministic, so — as with
   transformed programs — a lost race between domains recomputes an
   identical table and the first write wins. *)
let heat ctx scheme =
  let c = ctx.scheme_cache in
  Mutex.lock c.cache_lock;
  let hit = List.assoc_opt scheme c.heats in
  Mutex.unlock c.cache_lock;
  match hit with
  | Some t -> t
  | None ->
    let t = temperatures (transformed ctx scheme) (source ctx scheme) in
    Mutex.lock c.cache_lock;
    let t =
      match List.assoc_opt scheme c.heats with
      | Some winner -> winner
      | None ->
        c.heats <- (scheme, t) :: c.heats;
        t
    in
    Mutex.unlock c.cache_lock;
    t

type variant =
  | Exact_length of int
  | Fraction of float
  | Threshold of float
  | Metric of Profiler.Metric.t

(* Variant programs are single-use (each sensitivity point simulates
   once), so they bypass the scheme cache. *)
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

let energy ?params ~base st =
  Energy.Model.saving
    ~base:(Energy.Model.of_stats ?params base)
    ~optimized:(Energy.Model.of_stats ?params st)
