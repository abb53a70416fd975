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
  context_cap : int option; (* max resident contexts; None = unbounded *)
  pool : Parallel.Pool.t Lazy.t;
  lock : Mutex.t;
  contexts : (string, Critics.Run.app_context) Hashtbl.t;
  ctx_stamps : (string, int) Hashtbl.t; (* LRU stamps, under [lock] *)
  mutable ctx_clock : int;
  mutable ctx_evictions : int;
  results : (string, Pipeline.Stats.t) Hashtbl.t;
  probes : (string, Telemetry.Probe.t) Hashtbl.t;
}

let create ?(instrs = Critics.Run.default_instrs) ?jobs ?telemetry ?store
    ?context_cap () =
  let jobs =
    max 1 (match jobs with Some j -> j | None -> Parallel.default_jobs ())
  in
  {
    instrs;
    jobs;
    telemetry;
    store;
    context_cap = Option.map (max 1) context_cap;
    pool = lazy (Parallel.Pool.create ~jobs ());
    lock = Mutex.create ();
    contexts = Hashtbl.create 32;
    ctx_stamps = Hashtbl.create 32;
    ctx_clock = 0;
    ctx_evictions = 0;
    results = Hashtbl.create 256;
    probes = Hashtbl.create 256;
  }

let instrs t = t.instrs
let jobs t = t.jobs
let telemetry_window t = t.telemetry
let store t = t.store
let pool t = Lazy.force t.pool

let resident_contexts t =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.contexts in
  Mutex.unlock t.lock;
  n

let context_evictions t =
  Mutex.lock t.lock;
  let n = t.ctx_evictions in
  Mutex.unlock t.lock;
  n

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

(* The one key of a simulation: a digest of the job's marshalled values,
   so it follows the *actual* machine configuration and variant, not a
   caller-supplied label — distinct values never collide and
   structurally equal ones share one entry.  No sharing: equal values
   must marshal to equal bytes whatever their physical sharing. *)
let job_key j =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          (j.job_profile.name, j.job_scheme, j.job_variant, j.job_config)
          [ Marshal.No_sharing ]))

(* -------- bounded-LRU resident contexts (all under [t.lock]) ------- *)

let touch_locked t name =
  t.ctx_clock <- t.ctx_clock + 1;
  Hashtbl.replace t.ctx_stamps name t.ctx_clock

(* Evict least-recently-touched contexts until at most [cap] remain.
   Only the resident table shrinks: callers holding a context keep it
   alive, and with a store attached a later request reloads the evicted
   context from disk instead of re-deriving it — which is what keeps
   peak heap flat across a many-app sweep. *)
let rec evict_locked t cap =
  if Hashtbl.length t.contexts > cap then begin
    let victim =
      Hashtbl.fold
        (fun name _ acc ->
          let stamp =
            match Hashtbl.find_opt t.ctx_stamps name with
            | Some s -> s
            | None -> 0
          in
          match acc with
          | Some (_, s) when s <= stamp -> acc
          | _ -> Some (name, stamp))
        t.contexts None
    in
    match victim with
    | None -> ()
    | Some (name, _) ->
      Hashtbl.remove t.contexts name;
      Hashtbl.remove t.ctx_stamps name;
      t.ctx_evictions <- t.ctx_evictions + 1;
      evict_locked t cap
  end

let enforce_cap_locked t =
  match t.context_cap with None -> () | Some cap -> evict_locked t cap

let context t (profile : Workload.Profile.t) =
  Mutex.lock t.lock;
  let cached = Hashtbl.find_opt t.contexts profile.name in
  (match cached with Some _ -> touch_locked t profile.name | None -> ());
  Mutex.unlock t.lock;
  match cached with
  | Some ctx -> ctx
  | None ->
    let ctx = Critics.Run.prepare ?store:t.store ~instrs:t.instrs profile in
    Mutex.lock t.lock;
    (* Another domain may have raced us here; keep the first insert so
       every caller shares one context (and its trace cache). *)
    let ctx =
      match Hashtbl.find_opt t.contexts profile.name with
      | Some existing ->
        touch_locked t profile.name;
        existing
      | None ->
        Hashtbl.replace t.contexts profile.name ctx;
        touch_locked t profile.name;
        enforce_cap_locked t;
        ctx
    in
    Mutex.unlock t.lock;
    ctx

(* The single simulation entry point every memoized path funnels
   through.  Without telemetry the store memo sits under the in-memory
   one: a completed simulation is a deterministic function of the
   prepared context (ckey) and the job, so warm runs deserialize the
   stats instead of simulating.  With telemetry it attaches a fresh
   probe and — only if the run completes — stores it under the job's
   key, first insert winning.  Every job is deterministic, so a lost
   race stores an identical probe; failed runs leave neither stats nor
   probe behind. *)
let simulate t ~key ctx j scheme =
  let run ?probe () =
    Critics.Run.stats ~config:j.job_config ?probe ?variant:j.job_variant ctx
      scheme
  in
  match t.telemetry with
  | None ->
    Store.memo t.store
      (Store.key ~kind:"stats" [ ctx.Critics.Run.ckey; key ])
      (fun () -> run ())
  | Some window ->
    let probe = Telemetry.Probe.create ~window () in
    let st = run ~probe () in
    Mutex.lock t.lock;
    if not (Hashtbl.mem t.probes key) then Hashtbl.replace t.probes key probe;
    Mutex.unlock t.lock;
    st

let stats t ?config ?variant profile scheme =
  let j = job ?config ?variant profile scheme in
  let key = job_key j in
  Mutex.lock t.lock;
  let cached = Hashtbl.find_opt t.results key in
  Mutex.unlock t.lock;
  match cached with
  | Some st -> st
  | None ->
    let st = simulate t ~key (context t profile) j scheme in
    Mutex.lock t.lock;
    Hashtbl.replace t.results key st;
    Mutex.unlock t.lock;
    st

let probe_for t ?config ?variant profile scheme =
  let key = job_key (job ?config ?variant profile scheme) in
  Mutex.lock t.lock;
  let p = Hashtbl.find_opt t.probes key in
  Mutex.unlock t.lock;
  p

let telemetry_probes t =
  Mutex.lock t.lock;
  let l = Hashtbl.fold (fun k p acc -> (k, p) :: acc) t.probes [] in
  Mutex.unlock t.lock;
  List.sort (fun (a, _) (b, _) -> compare a b) l

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
      Mutex.lock t.lock;
      let p = Hashtbl.find_opt t.probes key in
      Mutex.unlock t.lock;
      match p with
      | Some p ->
        Telemetry.Registry.merge_into ~into (Telemetry.Probe.registry p)
      | None -> ())
    (sim_keys jobs);
  into

(* Fetch-bandwidth aggregate over a job set's memoized results: total
   instruction bytes delivered and total simulated cycles, summed over
   the distinct simulations the jobs name.  Jobs not yet simulated
   contribute nothing. *)
let fetch_totals_for t jobs =
  List.fold_left
    (fun (bytes, cycles) key ->
      Mutex.lock t.lock;
      let st = Hashtbl.find_opt t.results key in
      Mutex.unlock t.lock;
      match st with
      | Some (s : Pipeline.Stats.t) ->
        (bytes + s.fetch_bytes, cycles + s.cycles)
      | None -> (bytes, cycles))
    (0, 0) (sim_keys jobs)

let cache_registry t =
  let reg = Telemetry.Registry.create () in
  (match t.store with Some st -> Store.publish st reg | None -> ());
  Telemetry.Registry.add
    (Telemetry.Registry.counter reg "harness/context_evict")
    (context_evictions t);
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
  let module SSet = Set.Make (String) in
  (* Phase 1: prepare every missing context, one parallel task per
     application (chunk 1: preparation cost is uneven across apps). *)
  let known =
    Mutex.lock t.lock;
    let k =
      Hashtbl.fold (fun name _ acc -> SSet.add name acc) t.contexts SSet.empty
    in
    Mutex.unlock t.lock;
    k
  in
  let missing_profiles =
    List.sort_uniq
      (fun (a : Workload.Profile.t) b -> compare a.name b.name)
      (List.filter
         (fun j -> not (SSet.mem j.job_profile.name known))
         jobs
      |> List.map (fun j -> j.job_profile))
  in
  let prepared =
    Parallel.Pool.map_list ~chunk:1 (pool t)
      (fun (p : Workload.Profile.t) ->
        (p.name, Critics.Run.prepare ?store:t.store ~instrs:t.instrs p))
      missing_profiles
  in
  Mutex.lock t.lock;
  List.iter
    (fun (name, ctx) ->
      if not (Hashtbl.mem t.contexts name) then begin
        Hashtbl.replace t.contexts name ctx;
        touch_locked t name
      end)
    prepared;
  enforce_cap_locked t;
  Mutex.unlock t.lock;
  (* Phase 2: evaluate every missing simulation.  Jobs are ordered by
     (app, scheme) so consecutive jobs share the context's
     transformed-program slot. *)
  let have =
    Mutex.lock t.lock;
    let k =
      Hashtbl.fold (fun key _ acc -> SSet.add key acc) t.results SSet.empty
    in
    Mutex.unlock t.lock;
    k
  in
  let missing =
    List.filter_map
      (fun j ->
        match j.job_scheme with
        | None -> None
        | Some scheme ->
          let key = job_key j in
          let order = (j.job_profile.name, Critics.Scheme.name scheme, key) in
          if SSet.mem key have then None else Some (order, j, scheme))
      jobs
    |> List.sort_uniq (fun (a, _, _) (b, _, _) -> compare a b)
  in
  let computed =
    Parallel.Pool.map_list ~chunk:1 (pool t)
      (fun ((_, _, key), j, scheme) ->
        (key, simulate t ~key (context t j.job_profile) j scheme))
      missing
  in
  Mutex.lock t.lock;
  List.iter
    (fun (key, st) ->
      if not (Hashtbl.mem t.results key) then Hashtbl.replace t.results key st)
    computed;
  Mutex.unlock t.lock

let mean = Util.Stats.mean

let suites =
  [
    ("Mobile", Workload.Apps.mobile);
    ("SPEC.int", Workload.Apps.spec_int);
    ("SPEC.float", Workload.Apps.spec_float);
  ]
