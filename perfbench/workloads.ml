(* The benchmark's three workloads, run through the library's public API
   on one domain (jobs = 1).  NOTES.md gives the reasons for each
   workload and the layer x workload table. *)

module Run = Critics.Run
module Scheme = Critics.Scheme
module Harness = Experiments.Harness

(* Instruction budgets per app run.  The paper workloads run at the
   budget of the bench timings in NOTES.md ("Why one domain"), so every
   simulation in a pass, fig12's included, weighs what it does there. *)
let paper_instrs = 20_000
let prepare_instrs = 16_000

(* Seeds pick execution samples from a fixed universe per app, whose
   every request digest is recorded, so every seed is checked. *)
let prepare_samples = 8

let clock = Unix.gettimeofday
let hex s = Digest.to_hex (Digest.string s)

type env = {
  seed : int;
  instrs : int;
  workdir : string;  (* the workload's fresh temporary directory *)
  check : string -> string -> bool;  (* request key -> digest -> matches *)
}

(* One operation: an artifact render or a sweep request. *)
type op = { key : string; seconds : float; digest : string; ok : bool }

type pass = {
  ops : op list;
  layers : (string * float) list;  (* filled on traced passes only *)
}

type 'st workload = {
  name : string;
  table : string;  (* digest table name in expected.txt *)
  default_instrs : int;
  setup_reps : int;
      (* Set-ups per run.  The host's speed changes from one fraction of
         a second to the next, so a run's set-ups together last a few
         seconds and their median spans several such spells. *)
  min_passes : int;
      (* Timed passes run at the least, however long they take, so a
         slow spell on the host cannot change what [wall_s] is: with 2,
         always the fastest of at least two repeats of each operation. *)
  setup : env -> 'st * op list;
  pass : env -> Spans.t -> 'st -> pass;
  teardown : env -> 'st -> unit;
  probe : env -> Spans.t -> 'st -> (string * float) list;
}

let checked env key ~seconds digest =
  { key; seconds; digest; ok = env.check key digest }

let failed_op key ~seconds = { key; seconds; digest = ""; ok = false }

(* An operation with no output to check. *)
let bare_op key ~seconds = { key; seconds; digest = ""; ok = true }

(* The full collection that ends a timed unit of work, so its garbage
   is collected inside the timing rather than in the next unit's or
   outside any. *)
let collect spans ~request = Spans.span spans ~request "gc" Gc.full_major

(* Time [f] alone, then digest its result outside the timing, under a
   top-level "check" span; an exception is a failed operation. *)
let timed_op env spans key f digest =
  let t0 = clock () in
  match f () with
  | r ->
    let seconds = clock () -. t0 in
    Spans.span spans ~request:key "check" (fun () ->
        match digest r with
        | d -> checked env key ~seconds d
        | exception _ -> failed_op key ~seconds)
  | exception _ -> failed_op key ~seconds:(clock () -. t0)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let ms s = 1000. *. s
let per n x = if n = 0 then 0. else x /. float_of_int n
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* ------------------------- simulator probes -------------------------- *)

let drain c =
  let n = ref 0 in
  while Prog.Trace.Stream.next_ev c != Prog.Trace.Stream.end_marker do
    incr n
  done;
  !n

let time f =
  let t0 = clock () in
  let r = f () in
  (r, clock () -. t0)

(* Decompose one Table I simulation per (mobile context, scheme in
   Baseline/Critic): the stream the simulator pulls twice, the same
   stream replayed from a trace pack, the warm pass, and the heat
   profile the TRRIP machines need; plus the simulated counts of those
   runs. *)
let sim_probe env spans contexts =
  let pack_path = Filename.concat env.workdir "probe.pack" in
  let pairs =
    List.concat_map
      (fun ctx -> List.map (fun s -> (ctx, s)) [ Scheme.Baseline; Scheme.Critic ])
      contexts
  in
  let n = List.length pairs in
  let events = ref 0 and t_stream = ref 0. and t_replay = ref 0. in
  let t_self = ref 0. and t_warm = ref 0. and t_heat = ref 0. in
  let add r dt = r := !r +. dt in
  let stats =
    List.map
      (fun (ctx, scheme) ->
        Spans.span spans ~request:(Scheme.name scheme) "probe" (fun () ->
            (* Load the transformed program and walk the stream once
               before any timing, so no one-time cost lands in a layer. *)
            ignore (drain (Run.stream ctx scheme));
            let ev, stream =
              Spans.span spans "program.stream" (fun () ->
                  time (fun () -> drain (Run.stream ctx scheme)))
            in
            events := !events + ev;
            add t_stream stream;
            ignore (Prog.Trace.Pack.record ~path:pack_path (Run.stream ctx scheme));
            let pack =
              match Prog.Trace.Pack.open_file pack_path with
              | Ok p -> p
              | Error e -> failwith ("trace pack: " ^ e)
            in
            add t_replay
              (snd
                 (Spans.span spans "program.pack_replay" (fun () ->
                      time (fun () ->
                          drain (Prog.Trace.Pack.cursor pack (Run.transformed ctx scheme))))));
            Sys.remove pack_path;
            let st, full =
              Spans.span spans "pipeline.run_stream" (fun () ->
                  time (fun () ->
                      Pipeline.Cpu.run_stream Pipeline.Config.table_i (Run.source ctx scheme)))
            in
            (* Self time: the run minus its two pulls of the stream. *)
            add t_self (full -. (2. *. stream));
            let _, cold =
              Spans.span spans "pipeline.run_stream_nowarm" (fun () ->
                  time (fun () ->
                      Pipeline.Cpu.run_stream ~warm:false Pipeline.Config.table_i
                        (Run.source ctx scheme)))
            in
            add t_warm (full -. cold);
            let num_blocks = Prog.Program.num_blocks (Run.transformed ctx scheme) in
            add t_heat
              (snd
                 (Spans.span spans "profiler.heat" (fun () ->
                      time (fun () -> Profiler.Heat.profile ~num_blocks (Run.stream ctx scheme)))));
            st))
      pairs
  in
  let total f = List.fold_left (fun acc (s : Pipeline.Stats.t) -> acc + f s) 0 stats in
  let committed = total (fun s -> s.committed_total) in
  let miss_ratio f = ratio (total (fun s -> (f s).Mem.Cache.misses)) (total (fun s -> (f s).Mem.Cache.accesses)) in
  [
    ("program.stream_events_per_s", float_of_int !events /. !t_stream);
    ("program.pack_replay_events_per_s", float_of_int !events /. !t_replay);
    ("pipeline.sim_ms", ms (per n !t_self));
    ("pipeline.events_per_s", float_of_int committed /. !t_self);
    ("pipeline.warm_ms", ms (per n !t_warm));
    ("profiler.heat_ms", ms (per n !t_heat));
    ("pipeline.sim_cycles", float_of_int (total (fun s -> s.cycles)));
    ("pipeline.committed", float_of_int committed);
    ("mem.l1i_accesses", float_of_int (total (fun s -> s.l1i.accesses)));
    ("mem.l1i_miss_ratio", miss_ratio (fun s -> s.l1i));
    ("mem.l1d_miss_ratio", miss_ratio (fun s -> s.l1d));
    ("mem.l2_miss_ratio", miss_ratio (fun s -> s.l2));
    ("bpu.lookups", float_of_int (total (fun s -> s.bpu.lookups)));
    ( "bpu.mispredict_ratio",
      ratio (total (fun s -> s.bpu.mispredicts)) (total (fun s -> s.bpu.lookups)) );
  ]

(* --------------------------- paper-cold / paper-warm --------------- *)

let paper_jobs () =
  List.concat_map (fun (e : Experiments.entry) -> e.jobs ()) Experiments.all

(* Regenerate the default artifact set through one harness with the
   store at [store_dir] attached: prewarm, then each entry's render,
   as the bench does. *)
let paper_pass env spans ~store_dir =
  let store = Store.open_dir store_dir in
  let h = Harness.create ~instrs:env.instrs ~jobs:1 ~store () in
  let s0 = Store.stats store in
  let since = Spans.now spans in
  let prewarm =
    let t0 = clock () in
    match
      Spans.span spans ~request:"prewarm" "experiments.prewarm" (fun () ->
          Harness.run_batch h (paper_jobs ()))
    with
    | () -> bare_op "prewarm" ~seconds:(clock () -. t0)
    | exception _ -> failed_op "prewarm" ~seconds:(clock () -. t0)
  in
  let renders =
    List.map
      (fun (e : Experiments.entry) ->
        timed_op env spans e.id
          (fun () ->
            Spans.span spans ~request:e.id ("experiments." ^ e.id) (fun () ->
                e.render h))
          hex)
      Experiments.all
  in
  let gc =
    let t0 = clock () in
    collect spans ~request:"gc";
    bare_op "gc" ~seconds:(clock () -. t0)
  in
  let layers =
    if not (Spans.enabled spans) then []
    else
      let s1 = Store.stats store in
      let hits = s1.hits - s0.hits and misses = s1.misses - s0.misses in
      [
        ("experiments.prewarm_ms", ms (Spans.total ~since spans "experiments.prewarm"));
        ("store.hits", float_of_int hits);
        ("store.misses", float_of_int misses);
        ("store.writes", float_of_int (s1.writes - s0.writes));
        ("store.corrupt", float_of_int (s1.corrupt - s0.corrupt));
        ("store.hit_ratio", ratio hits (hits + misses));
        ("harness.resident_contexts", float_of_int (Harness.resident_contexts h));
        ("harness.context_evictions", float_of_int (Harness.context_evictions h));
      ]
      @ List.map
          (fun (e : Experiments.entry) ->
            let name = "experiments." ^ e.id in
            (name ^ "_ms", ms (Spans.total ~since spans name)))
          Experiments.all
  in
  { ops = (prewarm :: renders) @ [ gc ]; layers }

let store_mb dir = float_of_int (Store.total_bytes (Store.open_dir dir)) /. 1e6

(* The store's growth over a traced pass, under the benchmark's own
   "measure" spans: the pass cannot see it without walking the
   directory. *)
let with_store_growth spans dir f =
  if not (Spans.enabled spans) then f ()
  else
    let size () = Spans.span spans "measure" (fun () -> store_mb dir) in
    let before = size () in
    let p = f () in
    { p with layers = ("store.bytes_mb", size () -. before) :: p.layers }

(* A fresh store per pass: the store's write path. *)
let paper_cold : string workload =
  {
    name = "paper-cold";
    table = "paper";
    default_instrs = paper_instrs;
    setup_reps = 9;
    min_passes = 1;
    setup =
      (fun env ->
        (* Finish lazy state before timing: the code version behind
           every store key, and the SPEC float contexts, built through
           a harness with no store and dropped. *)
        ignore (Store.code_version ());
        Harness.run_batch
          (Harness.create ~instrs:env.instrs ~jobs:1 ())
          (List.map Harness.context_job Workload.Apps.spec_float);
        (Filename.concat env.workdir "store", []));
    pass =
      (fun env spans store_dir ->
        with_store_growth spans store_dir (fun () ->
            paper_pass env spans ~store_dir));
    teardown = (fun _ store_dir -> rm_rf store_dir);
    probe = (fun _ _ _ -> []);
  }

(* Run [f] in a forked child, so the child's heap and resident peak
   never reach the parent's figures; true when it returned normally. *)
let in_child f =
  flush_all ();
  match Unix.fork () with
  | 0 -> Unix._exit (match f () with () -> 0 | exception _ -> 1)
  | pid -> (
    match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false)

(* The store is filled during set-up by the prewarm batch, which leaves
   no miss for the renders, so timed passes only read it; fig12 and the
   ablations bypass it. *)
let paper_warm : string workload =
  {
    name = "paper-warm";
    table = "paper";
    default_instrs = paper_instrs;
    setup_reps = 1;
    min_passes = 1;
    setup =
      (fun env ->
        let store_dir = Filename.concat env.workdir "store" in
        rm_rf store_dir;
        let filled =
          in_child (fun () ->
              Harness.run_batch
                (Harness.create ~instrs:env.instrs ~jobs:1
                   ~store:(Store.open_dir store_dir) ())
                (paper_jobs ()))
        in
        (store_dir, [ { key = "fill"; seconds = 0.; digest = ""; ok = filled } ]));
    pass =
      (fun env spans store_dir ->
        with_store_growth spans store_dir (fun () ->
            paper_pass env spans ~store_dir));
    teardown = (fun _ _ -> ());
    probe =
      (fun env spans store_dir ->
        let h =
          Harness.create ~instrs:env.instrs ~jobs:1 ~store:(Store.open_dir store_dir) ()
        in
        sim_probe env spans (List.map (Harness.context h) Workload.Apps.mobile));
  }

(* ---------------------------- prepare-sweep ------------------------ *)

let non_baseline = List.filter (fun s -> s <> Scheme.Baseline) Scheme.all

let prepare_key (app : Workload.Profile.t) sample =
  Printf.sprintf "%s/s%d" app.name sample

let block_digest (b : Prog.Block.t) =
  Digest.string (Marshal.to_string b [ Marshal.No_sharing ])

(* A transformed program's digest, block by block.  Most transforms
   rewrite a few blocks and share the rest physically with the input
   program, whose block digests are reused. *)
let program_digest ~base ~base_digests p =
  String.concat ""
    (Array.to_list
       (Array.mapi
          (fun i b ->
            if i < Array.length base && base.(i) == b then base_digests.(i)
            else block_digest b)
          (Prog.Program.blocks p)))

let prepare_requests seed =
  let rng = Random.State.make [| seed; 0x50 |] in
  Array.of_list
    (List.map (fun app -> (app, Random.State.int rng prepare_samples)) Workload.Apps.all)

type prepared = {
  lib_seconds : float;  (* in the library, digests excluded *)
  output : string;  (* digest of the CritIC database and every program *)
  compiler_runs : int;
  chains : int;
}

(* One request: prepare the context, then every non-baseline scheme's
   transform, then collect the request's garbage.  Each program is
   digested as soon as it is produced, so the benchmark never holds
   more programs than the library does; digests are not timed. *)
let prepare_request ~instrs spans (app, sample) =
  let key = prepare_key app sample in
  let seconds = ref 0. in
  let timed name f =
    let t0 = clock () in
    let r = Spans.span spans ~request:key name f in
    seconds := !seconds +. (clock () -. t0);
    r
  in
  let check f = Spans.span spans ~request:key "check" f in
  Spans.span spans ~request:key "request" (fun () ->
      let ctx = timed "core.prepare" (fun () -> Run.prepare ~instrs ~sample app) in
      let base = Prog.Program.blocks ctx.program in
      let base_digests, db =
        check (fun () ->
            ( Array.map block_digest base,
              Marshal.to_string (ctx.db.sites, ctx.db.total_work) [ Marshal.No_sharing ] ))
      in
      let programs =
        List.map
          (fun s ->
            let p = timed "core.transformed" (fun () -> Run.transformed ctx s) in
            check (fun () -> program_digest ~base ~base_digests p))
          non_baseline
      in
      let output =
        check (fun () ->
            hex (String.concat "" (db :: String.concat "" (Array.to_list base_digests) :: programs)))
      in
      let compiler_runs = Run.transform_count ctx and chains = List.length ctx.db.sites in
      let t0 = clock () in
      collect spans ~request:key;
      { lib_seconds = !seconds +. (clock () -. t0); output; compiler_runs; chains })

let prepare_sweep : (Workload.Profile.t * int) array workload =
  {
    name = "prepare-sweep";
    table = "prepare";
    default_instrs = prepare_instrs;
    setup_reps = 7;
    min_passes = 2;
    setup =
      (fun env ->
        (* One request per SPEC float app, outside the sample universe,
           finishes lazy state before timing. *)
        List.iter
          (fun app ->
            ignore
              (prepare_request ~instrs:env.instrs (Spans.create ~on:false)
                 (app, prepare_samples)))
          Workload.Apps.spec_float;
        (prepare_requests env.seed, []));
    pass =
      (fun env spans reqs ->
        let since = Spans.now spans in
        let compiler_runs = ref 0 and chains = ref 0 in
        let ops =
          Array.map
            (fun (app, sample) ->
              let key = prepare_key app sample in
              match prepare_request ~instrs:env.instrs spans (app, sample) with
              | r ->
                compiler_runs := !compiler_runs + r.compiler_runs;
                chains := !chains + r.chains;
                checked env key ~seconds:r.lib_seconds r.output
              | exception _ -> failed_op key ~seconds:0.)
            reqs
        in
        let n = Array.length reqs in
        let calls = n * List.length non_baseline in
        let layers =
          if not (Spans.enabled spans) then []
          else
            [
              ("core.prepare_ms", ms (per n (Spans.total ~since spans "core.prepare")));
              ("core.transformed_calls", float_of_int calls);
              ("core.compiler_runs", float_of_int !compiler_runs);
              ("core.transform_reuse_ratio", ratio calls !compiler_runs);
              ("profiler.db_chains", float_of_int !chains);
            ]
        in
        { ops = Array.to_list ops; layers });
    teardown = (fun _ _ -> ());
    probe =
      (* Replay each app's first request layer by layer: generation,
         path walk and profiling as [Run.prepare] composes them, then
         every transform pass alone through [Pipeline.run]. *)
      (fun env spans reqs ->
        let firsts =
          Array.fold_left
            (fun acc ((app : Workload.Profile.t), s) ->
              if List.exists (fun ((a : Workload.Profile.t), _) -> a.name = app.name) acc
              then acc
              else (app, s) :: acc)
            [] reqs
          |> List.rev
        in
        let n = List.length firsts in
        let totals = Hashtbl.create 16 in
        let add name dt =
          Hashtbl.replace totals name
            (dt +. Option.value ~default:0. (Hashtbl.find_opt totals name))
        in
        let profiled = ref 0 in
        let layer name f =
          let r, dt = Spans.span spans name (fun () -> time f) in
          add name dt;
          r
        in
        List.iter
          (fun (app, sample) ->
            Spans.span spans ~request:(prepare_key app sample) "probe" (fun () ->
                let ctx = Run.prepare ~instrs:env.instrs ~sample app in
                let program = layer "workload.gen" (fun () -> Workload.Gen.program app) in
                let path, events =
                  layer "program.walk" (fun () ->
                      let path =
                        Prog.Walk.path_for_instrs program ~seed:ctx.seed
                          ~instrs:env.instrs
                      in
                      (path, Prog.Trace.length_of_path program path))
                in
                ignore
                  (layer "profiler.profile" (fun () ->
                       Profiler.Profile_run.profile_stream ~total_events:events
                         (Prog.Trace.Stream.of_program program ~seed:ctx.seed path)));
                profiled := !profiled + events;
                List.iter
                  (fun mode ->
                    let tenv =
                      Transform.Pass.env
                        ~options:{ Transform.Pass.default_options with mode }
                        ctx.db
                    in
                    ignore
                      (List.fold_left
                         (fun prog (p : Transform.Pass.t) ->
                           layer ("transform." ^ p.name) (fun () ->
                               match Transform.Pipeline.run tenv [ p ] prog with
                               | Ok (prog', _) -> prog'
                               | Error e -> failwith e.Transform.Pipeline.detail))
                         ctx.program
                         (Transform.Pipeline.canonical
                            { Transform.Pass.default_options with mode })))
                  [ Transform.Pass.Cdp; Transform.Pass.Branches;
                    Transform.Pass.Hoist_only; Transform.Pass.Fused_macro ];
                ignore (layer "transform.opp16" (fun () -> Transform.Thumb.opp16 ctx.program));
                ignore
                  (layer "transform.compress" (fun () -> Transform.Thumb.compress ctx.program))))
          firsts;
        let mean name = ms (per n (Option.value ~default:0. (Hashtbl.find_opt totals name))) in
        [
          ("workload.gen_ms", mean "workload.gen");
          ("program.walk_ms", mean "program.walk");
          ("profiler.profile_ms", mean "profiler.profile");
          ( "profiler.events_per_s",
            float_of_int !profiled
            /. Option.value ~default:1. (Hashtbl.find_opt totals "profiler.profile") );
          ("transform.opp16_ms", mean "transform.opp16");
          ("transform.compress_ms", mean "transform.compress");
        ]
        @ List.map (fun p -> ("transform." ^ p ^ "_ms", mean ("transform." ^ p))) Catalog.pass_names);
  }

(* ------------------------------- runner ---------------------------- *)

type outcome = {
  name : string;
  attempted : int;
  failed : int;
  digest : string;  (* one digest over the first pass's outputs *)
  passes : int;
  metrics : (string * float) list;
  report : (string * float option * int) list;
      (* report-only: value (None: too few samples), sample count *)
}

(* Peak major-heap size over the first timed pass, sampled at the end
   of every major cycle.  OCaml 5.1 returns freed pools, so set-up's
   peak does not carry over once a full major cycle has run.  Later
   passes are not sampled: from a collected heap with nothing live, an
   identical second paper pass peaked anywhere from 1.2x to 1.9x the
   first, depending on where the GC's cycles fell, so memory figures
   would follow the number of passes the host's speed allowed. *)
let heap_top = ref 0
let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6

let sample_heap () =
  let s = Gc.quick_stat () in
  if s.heap_words > !heap_top then heap_top := s.heap_words

(* Linux: VmHWM is the resident high-water mark; writing 5 to
   clear_refs restarts it at the current resident size. *)
let reset_rss_peak () =
  try
    Out_channel.with_open_text "/proc/self/clear_refs" (fun oc ->
        output_string oc "5")
  with Sys_error _ -> ()

let rss_peak_kb () =
  try
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec go () =
          match In_channel.input_line ic with
          | None -> None
          | Some l ->
            if String.length l > 6 && String.sub l 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" Option.some
            else go ()
        in
        go ())
  with Sys_error _ -> None

(* One pass's time: over the pass's operations, the sum of each
   operation's fastest time across [passes].  Host interference only
   ever slows an operation down, so the fastest repeat is the steadiest
   estimate of its cost. *)
let pass_time passes =
  let by_key = Hashtbl.create 256 in
  List.iter
    (fun p ->
      List.iter
        (fun o ->
          Hashtbl.replace by_key o.key
            (o.seconds :: Option.value ~default:[] (Hashtbl.find_opt by_key o.key)))
        p.ops)
    passes;
  Hashtbl.fold (fun _ xs acc -> acc +. List.fold_left Float.min infinity xs) by_key 0.

(* Trace coverage of one traced pass: the time inside library-layer
   spans, over the pass's wall time less the benchmark's own spans
   (digesting outputs, collecting the heap, measuring the store). *)
let is_library name =
  String.starts_with ~prefix:"experiments." name || String.starts_with ~prefix:"core." name

let is_own = function "check" | "gc" | "measure" -> true | _ -> false

let coverage ~since spans elapsed =
  Spans.outermost ~since spans is_library
  /. (elapsed -. Spans.outermost ~since spans is_own)

let combined_digest ops =
  hex
    (String.concat "\n"
       (List.sort compare (List.map (fun o -> o.key ^ "=" ^ o.digest) ops)))

let run (type st) (w : st workload) ~seed ~seconds ~trace ?instrs ~expected
    ~workdir ~trace_out () =
  let instrs = Option.value instrs ~default:w.default_instrs in
  let env =
    {
      seed;
      instrs;
      workdir;
      check = Expected.check (Expected.checker expected ~table:w.table ~instrs);
    }
  in
  let setup_times = ref [] in
  let rec setups k last =
    if k = 0 then Option.get last
    else begin
      (match last with Some (st, _) -> w.teardown env st | None -> ());
      let r, dt = time (fun () -> w.setup env) in
      setup_times := dt :: !setup_times;
      setups (k - 1) (Some r)
    end
  in
  let st, setup_ops = setups (max 1 w.setup_reps) None in
  let off = Spans.create ~on:false and on = Spans.create ~on:true in
  Gc.full_major ();
  heap_top := 0;
  sample_heap ();
  let alarm = Gc.create_alarm sample_heap in
  reset_rss_peak ();
  let plain = ref [] and traced = ref [] and peak = ref (0., None) in
  let t0 = clock () in
  let i = ref 0 in
  while
    clock () -. t0 < seconds || !i < w.min_passes || !plain = [] || (trace && !traced = [])
  do
    let is_traced = trace && !i mod 2 = 1 in
    let spans = if is_traced then on else off in
    let since = Spans.now on in
    let p, elapsed = time (fun () -> w.pass env spans st) in
    if !i = 0 then begin
      sample_heap ();
      Gc.delete_alarm alarm;
      peak := (mb !heap_top, rss_peak_kb ())
    end;
    w.teardown env st;
    let covered = coverage ~since on elapsed in
    if is_traced then traced := (p, covered) :: !traced else plain := p :: !plain;
    incr i
  done;
  Gc.delete_alarm alarm;
  let plain = List.rev !plain and traced = List.rev !traced in
  let all_ops =
    setup_ops @ List.concat_map (fun p -> p.ops) plain
    @ List.concat_map (fun (p, _) -> p.ops) traced
  in
  let failed = List.length (List.filter (fun o -> not o.ok) all_ops) in
  let first_ops = (List.hd plain).ops in
  let plain_ops = List.concat_map (fun p -> p.ops) plain in
  let is_sweep = w.table <> "paper" in
  let latencies = List.map (fun o -> o.seconds) plain_ops in
  let n_lat = List.length latencies in
  let report =
    (if is_sweep then
       List.map
         (fun (name, p) -> (name, Option.map ms (Sample.percentile p latencies), n_lat))
         [ ("request_p50_ms", 50.); ("request_p90_ms", 90.) ]
     else [])
    @ [ ("failed_ratio", Some (ratio failed (List.length all_ops)), List.length all_ops) ]
  in
  let metrics =
    if not trace then
      [
        ("setup_s", Sample.median !setup_times);
        ("wall_s", pass_time plain);
        ("top_heap_mb", fst !peak);
        ( "peak_rss_mb",
          match snd !peak with Some kb -> float_of_int kb /. 1e3 | None -> fst !peak );
      ]
    else begin
      let probes = w.probe env on st in
      let n_traced = List.length traced in
      let layer_means =
        List.map
          (fun (name, _) ->
            ( name,
              per n_traced
                (List.fold_left
                   (fun acc (p, _) ->
                     acc +. Option.value ~default:0. (List.assoc_opt name p.layers))
                   0. traced) ))
          Catalog.per_layer
      in
      let traced_wall = pass_time (List.map fst traced) in
      let plain_wall = pass_time plain in
      let computed =
        [
          ("trace.coverage", Sample.median (List.map snd traced));
          ("trace.overhead_pct", 100. *. (traced_wall -. plain_wall) /. plain_wall);
        ]
      in
      let chrome = Spans.to_chrome on in
      (match Telemetry.Chrome_trace.validate chrome with
      | Ok _ -> ()
      | Error e -> failwith ("span export does not validate: " ^ e));
      let base = Filename.concat trace_out (Printf.sprintf "%s-seed%d" w.name seed) in
      Out_channel.with_open_bin (base ^ ".trace.json") (fun oc -> output_string oc chrome);
      Out_channel.with_open_bin (base ^ ".spans.jsonl") (fun oc ->
          output_string oc (Spans.to_jsonl on));
      List.map
        (fun (name, _) ->
          match List.assoc_opt name computed with
          | Some v -> (name, v)
          | None -> (
            match List.assoc_opt name probes with
            | Some v -> (name, v)
            | None -> (name, List.assoc name layer_means)))
        Catalog.per_layer
    end
  in
  {
    name = w.name;
    attempted = List.length all_ops;
    failed;
    digest = combined_digest first_ops;
    passes = List.length plain + List.length traced;
    metrics;
    report;
  }

type packed = Workload : 'st workload -> packed

let all =
  [ Workload paper_cold; Workload paper_warm; Workload prepare_sweep ]

let names = List.map (fun (Workload w) -> w.name) all

let find name = List.find_opt (fun (Workload w) -> w.name = name) all

(* Every request digest of a workload's whole input universe, as lines
   for expected.txt. *)
let record ?instrs ~workdir (Workload w) =
  let instrs = Option.value instrs ~default:w.default_instrs in
  let line key digest = Expected.line ~table:w.table ~instrs key digest in
  let off = Spans.create ~on:false in
  match w.table with
  | "paper" ->
    let store_dir = Filename.concat workdir "store" in
    let p =
      paper_pass { seed = 0; instrs; workdir; check = (fun _ _ -> true) } off ~store_dir
    in
    rm_rf store_dir;
    List.filter_map
      (fun o ->
        if not o.ok then failwith ("artifact failed: " ^ o.key)
        else if o.digest = "" then None
        else Some (line o.key o.digest))
      p.ops
  | _ ->
    List.concat_map
      (fun app ->
        List.map
          (fun sample ->
            line (prepare_key app sample) (prepare_request ~instrs off (app, sample)).output)
          (List.init prepare_samples Fun.id))
      Workload.Apps.all
