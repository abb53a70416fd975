type point = { label : string; speedup : float }

type result = {
  threshold : point list;
  metric : point list;
  cdp_penalty : point list;
  iq_size : point list;
  fetch_queue : point list;
  wrong_path : point list;
}

let default_apps () =
  List.filter_map Workload.Apps.find [ "Acrobat"; "Browser"; "Youtube" ]

(* One row of an ablation table: the simulation each app runs for it. *)
type setting = {
  setting : string;
  config : Pipeline.Config.t;
  variant : Critics.Run.variant option;
  scheme : Critics.Scheme.t;
}

let critic_variant setting variant =
  {
    setting;
    config = Pipeline.Config.table_i;
    variant = Some variant;
    scheme = Critics.Scheme.Critic;
  }

let machine setting config scheme = { setting; config; variant = None; scheme }

let thresholds =
  List.map
    (fun t ->
      critic_variant
        (Printf.sprintf "threshold %.0f" t)
        (Critics.Run.Threshold t))
    [ 2.0; 3.0; 4.0; 6.0; 8.0 ]

let metrics =
  List.map
    (fun m -> critic_variant (Profiler.Metric.name m) (Critics.Run.Metric m))
    Profiler.Metric.all

let cdp_penalties =
  List.map
    (fun p ->
      machine
        (Printf.sprintf "cdp penalty %d" p)
        { Pipeline.Config.table_i with cdp_decode_penalty = p }
        Critics.Scheme.Critic)
    [ 0; 1; 2 ]

(* Baseline-machine sensitivity, reported as cycle change of the
   *baseline* scheme on the modified machine. *)
let iq_sizes =
  List.map
    (fun iq ->
      machine (Printf.sprintf "iq %d" iq)
        { Pipeline.Config.table_i with iq }
        Critics.Scheme.Baseline)
    [ 16; 24; 48; 96 ]

let fetch_queues =
  List.map
    (fun fq ->
      machine
        (Printf.sprintf "fetchq %d" fq)
        { Pipeline.Config.table_i with fetch_queue = fq }
        Critics.Scheme.Baseline)
    [ 8; 16; 24; 48 ]

let wrong_path =
  [
    machine "wrong-path fetch on"
      { Pipeline.Config.table_i with wrong_path_fetch = true }
      Critics.Scheme.Baseline;
  ]

let job app s = Harness.job ~config:s.config ?variant:s.variant app s.scheme

let jobs_of settings apps =
  List.concat_map
    (fun app ->
      Harness.job app Critics.Scheme.Baseline
      :: List.map (job app) settings)
    apps

let jobs ?apps () =
  let apps = match apps with Some a -> a | None -> default_apps () in
  jobs_of (cdp_penalties @ iq_sizes @ fetch_queues @ wrong_path) apps

let run ?apps h =
  let apps = match apps with Some a -> a | None -> default_apps () in
  Harness.run_batch h
    (jobs_of
       (thresholds @ metrics @ cdp_penalties @ iq_sizes @ fetch_queues
      @ wrong_path)
       apps);
  (* Per-setting means over the apps in order, as a sequential run
     sums them. *)
  let section =
    List.map (fun s ->
        {
          label = s.setting;
          speedup =
            Harness.mean
              (List.map
                 (fun app ->
                   Harness.speedup h ~config:s.config ?variant:s.variant app
                     s.scheme)
                 apps);
        })
  in
  {
    threshold = section thresholds;
    metric = section metrics;
    cdp_penalty = section cdp_penalties;
    iq_size = section iq_sizes;
    fetch_queue = section fetch_queues;
    wrong_path = section wrong_path;
  }

let render r =
  let section title points =
    title ^ "\n"
    ^ Util.Text_table.render ~header:[ "setting"; "effect" ]
        (List.map (fun p -> [ p.label; Util.Stats.pct p.speedup ]) points)
  in
  String.concat "\n\n"
    [
      section "Ablation: CritIC speedup vs criticality threshold" r.threshold;
      section
        "Ablation: CritIC speedup vs chain-criticality metric (future work)"
        r.metric;
      section "Ablation: CritIC speedup vs CDP decode penalty" r.cdp_penalty;
      section "Ablation: baseline cycles vs issue-queue size" r.iq_size;
      section "Ablation: baseline cycles vs fetch-queue depth" r.fetch_queue;
      section "Ablation: wrong-path fetch modelling (i-cache pollution)"
        r.wrong_path;
    ]
