(* Every metric the benchmark prints, by name and unit.  BENCHMARK.json
   lists the same names; the benchmark's tests hold the two together. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("wall_s", "s");
    ("top_heap_mb", "MB");
    ("peak_rss_mb", "MB");
  ]

(* Printed in the human-readable report only: they do not apply to
   every workload (see NOTES.md), and the result line must carry each
   end-to-end metric on every workload. *)
let report_only =
  [
    ("request_p50_ms", "ms");
    ("request_p90_ms", "ms");
    ("failed_ratio", "ratio");
  ]

(* The transform passes timed one at a time, in the order the canonical
   pipelines of the four switch modes first name them. *)
let pass_names =
  let open Transform in
  List.fold_left
    (fun acc mode ->
      let names =
        Pipeline.names
          (Pipeline.canonical { Pass.default_options with mode })
      in
      acc @ List.filter (fun n -> not (List.mem n acc)) names)
    []
    [ Pass.Cdp; Pass.Branches; Pass.Hoist_only; Pass.Fused_macro ]

let artifact_ids =
  List.map (fun (e : Experiments.entry) -> e.id) Experiments.all

let per_layer =
  [
    ("trace.coverage", "ratio");
    ("trace.overhead_pct", "%");
    ("workload.gen_ms", "ms");
    ("program.walk_ms", "ms");
    ("profiler.profile_ms", "ms");
    ("profiler.events_per_s", "1/s");
    ("profiler.db_chains", "count");
    ("core.prepare_ms", "ms");
  ]
  @ List.map (fun n -> ("transform." ^ n ^ "_ms", "ms")) pass_names
  @ [
      ("transform.opp16_ms", "ms");
      ("transform.compress_ms", "ms");
      ("core.transformed_calls", "count");
      ("core.compiler_runs", "count");
      ("core.transform_reuse_ratio", "ratio");
      ("program.stream_events_per_s", "1/s");
      ("program.pack_replay_events_per_s", "1/s");
      ("pipeline.sim_ms", "ms");
      ("pipeline.events_per_s", "1/s");
      ("pipeline.warm_ms", "ms");
      ("profiler.heat_ms", "ms");
      ("pipeline.sim_cycles", "count");
      ("pipeline.committed", "count");
      ("mem.l1i_accesses", "count");
      ("mem.l1i_miss_ratio", "ratio");
      ("mem.l1d_miss_ratio", "ratio");
      ("mem.l2_miss_ratio", "ratio");
      ("bpu.lookups", "count");
      ("bpu.mispredict_ratio", "ratio");
      ("store.hits", "count");
      ("store.misses", "count");
      ("store.writes", "count");
      ("store.corrupt", "count");
      ("store.hit_ratio", "ratio");
      ("store.bytes_mb", "MB");
      ("experiments.prewarm_ms", "ms");
    ]
  @ List.map (fun id -> ("experiments." ^ id ^ "_ms", "ms")) artifact_ids
  @ [
      ("harness.resident_contexts", "count");
      ("harness.context_evictions", "count");
    ]

let unit_of name =
  match List.assoc_opt name (end_to_end @ report_only @ per_layer) with
  | Some u -> u
  | None -> invalid_arg ("Catalog.unit_of: unknown metric " ^ name)

let valid_name name =
  name <> ""
  && String.for_all
       (function
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       name
