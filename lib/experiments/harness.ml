type job = {
  job_profile : Workload.Profile.t;
  job_scheme : Critics.Scheme.t option; (* None: prepare the context only *)
  job_variant : Critics.Run.variant option;
  job_config : Pipeline.Config.t;
}

type t = {
  instrs : int;
  jobs : int;
  telemetry : int option; (* probe window size; None = probes disabled *)
  store : Store.t option; (* prepared-artifact cache; None = hermetic *)
  pool : Parallel.Pool.t Lazy.t;
  (* by content fingerprint: Store.key_digest of Run.context_key *)
  contexts : (string, Critics.Run.app_context) Util.Memo.t;
  (* by job_key *)
  results : (string, Pipeline.Stats.t * Telemetry.Probe.t option) Util.Memo.t;
}

let create ?(instrs = Critics.Run.default_instrs) ?jobs ?telemetry ?store () =
  let jobs =
    max 1 (match jobs with Some j -> j | None -> Parallel.default_jobs ())
  in
  {
    instrs;
    jobs;
    telemetry;
    store;
    pool = lazy (Parallel.Pool.create ~jobs ());
    contexts = Util.Memo.create ();
    results = Util.Memo.create ();
  }

let instrs t = t.instrs
let jobs t = t.jobs
let store t = t.store
let pool t = Lazy.force t.pool
let resident_contexts t = Util.Memo.length t.contexts
let context_evictions t = Util.Memo.evictions t.contexts

let job ?(config = Pipeline.Config.table_i) ?variant profile scheme =
  {
    job_profile = profile;
    job_scheme = Some scheme;
    job_variant = variant;
    job_config = config;
  }

let context_job profile =
  {
    job_profile = profile;
    job_scheme = None;
    job_variant = None;
    job_config = Pipeline.Config.table_i;
  }

(* The one key of a simulation: the store key of the job's values, so
   it follows the *actual* profile, machine configuration and variant,
   not a caller-supplied label — distinct values never collide and
   structurally equal ones share one entry. *)
let job_key j = Store.key_digest (Store.key ~kind:"job" j)

let context t profile =
  Util.Memo.find_or_add t.contexts
    (Store.key_digest (Critics.Run.context_key ~instrs:t.instrs profile))
    (fun () -> Critics.Run.prepare ?store:t.store ~instrs:t.instrs profile)

(* The single simulation entry point every memoized path funnels
   through.  Without telemetry the store memo sits under the in-memory
   one: a completed simulation is a deterministic function of the
   prepared context (ckey) and the job, so warm runs deserialize the
   stats instead of simulating.  With telemetry it always runs live and
   attaches a fresh probe, memoized with the stats. *)
let result t j scheme =
  let key = job_key j in
  Util.Memo.find_or_add t.results key (fun () ->
      let ctx = context t j.job_profile in
      let run ?probe () =
        Critics.Run.stats ~config:j.job_config ?probe ?variant:j.job_variant
          ctx scheme
      in
      match t.telemetry with
      | None ->
        ( Store.memo t.store
            (Store.key ~kind:"stats" (ctx.Critics.Run.ckey, key))
            (fun () -> run ()),
          None )
      | Some window ->
        let probe = Telemetry.Probe.create ~window () in
        let st = run ~probe () in
        (st, Some probe))

let stats t ?config ?variant profile scheme =
  fst (result t (job ?config ?variant profile scheme) scheme)

let probe_for t ?config ?variant profile scheme =
  let key = job_key (job ?config ?variant profile scheme) in
  Option.bind (Util.Memo.find_opt t.results key) snd

let telemetry_probes t =
  Util.Memo.fold
    (fun k (_, p) acc -> match p with Some p -> (k, p) :: acc | None -> acc)
    t.results []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* The distinct simulation keys a job set names. *)
let sim_keys jobs =
  List.filter_map
    (fun j -> if j.job_scheme = None then None else Some (job_key j))
    jobs
  |> List.sort_uniq compare

let telemetry_registry_for t jobs =
  let into = Telemetry.Registry.create () in
  List.iter
    (fun key ->
      match Util.Memo.find_opt t.results key with
      | Some (_, Some p) ->
        Telemetry.Registry.merge_into ~into (Telemetry.Probe.registry p)
      | _ -> ())
    (sim_keys jobs);
  into

(* Fetch-bandwidth aggregate over a job set's memoized results: total
   instruction bytes delivered and total simulated cycles, summed over
   the distinct simulations the jobs name.  Jobs not yet simulated
   contribute nothing. *)
let fetch_totals_for t jobs =
  List.fold_left
    (fun (bytes, cycles) key ->
      match Util.Memo.find_opt t.results key with
      | Some ((s : Pipeline.Stats.t), _) ->
        (bytes + s.fetch_bytes, cycles + s.cycles)
      | None -> (bytes, cycles))
    (0, 0) (sim_keys jobs)

let cache_registry t =
  let reg = Telemetry.Registry.create () in
  (match t.store with Some st -> Store.publish st reg | None -> ());
  reg

let telemetry_registry t =
  let into = Telemetry.Registry.create () in
  (* Sorted memo-key order: the aggregate is independent of the pool's
     completion order by construction (and merge is order-insensitive
     anyway — the qcheck suite checks both). *)
  List.iter
    (fun (_, p) ->
      Telemetry.Registry.merge_into ~into (Telemetry.Probe.registry p))
    (telemetry_probes t);
  into

let speedup t ?config ?variant profile scheme =
  let base = stats t profile Critics.Scheme.Baseline in
  Critics.Run.speedup ~base (stats t ?config ?variant profile scheme)

(* ------------------------------ batches --------------------------- *)

let run_batch t jobs =
  (* Phase 1: every distinct context, one parallel task per application
     (chunk 1: preparation cost is uneven across apps). *)
  let profiles =
    List.sort_uniq compare (List.map (fun j -> j.job_profile) jobs)
  in
  ignore (Parallel.Pool.map_list ~chunk:1 (pool t) (context t) profiles);
  (* Phase 2: every distinct simulation.  Jobs are ordered by
     (app, scheme) so consecutive jobs share the context's
     transformed-program slot, then by their values: not by [job_key],
     whose digest changes with every build and would reorder the
     simulations on each rebuild. *)
  let sims =
    List.filter_map
      (fun j ->
        match j.job_scheme with
        | None -> None
        | Some scheme ->
          let order = (j.job_profile.name, Critics.Scheme.name scheme, j) in
          Some (order, j, scheme))
      jobs
    |> List.sort_uniq (fun (a, _, _) (b, _, _) -> compare a b)
  in
  ignore
    (Parallel.Pool.map_list ~chunk:1 (pool t)
       (fun (_, j, scheme) -> result t j scheme)
       sims)

let mean = Util.Stats.mean

let suites =
  [
    ("Mobile", Workload.Apps.mobile);
    ("SPEC.int", Workload.Apps.spec_int);
    ("SPEC.float", Workload.Apps.spec_float);
  ]
