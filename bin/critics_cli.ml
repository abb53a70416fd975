(* Command-line interface to the CritICs reproduction. *)

open Cmdliner

let app_arg =
  let doc = "Application name (see `critics apps' for the list)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

let instrs_arg =
  let doc = "Dynamic work instructions to simulate per run." in
  Arg.(value & opt int Critics.Run.default_instrs & info [ "instrs" ] ~doc)

let lookup_app name =
  match Workload.Apps.find name with
  | Some p -> Ok p
  | None ->
    Error
      (Printf.sprintf "unknown app %S; try `critics apps'" name)

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline msg;
    exit 1

(* ------------------------------- apps ---------------------------- *)

let apps_cmd =
  let run () = print_endline (Workload.Apps.table_ii ()) in
  Cmd.v (Cmd.info "apps" ~doc:"List the evaluated applications (Table II)")
    Term.(const run $ const ())

(* ------------------------------ config --------------------------- *)

let config_cmd =
  let run () =
    print_endline
      (Util.Text_table.render_kv
         (Pipeline.Config.describe Pipeline.Config.table_i))
  in
  Cmd.v
    (Cmd.info "config" ~doc:"Print the baseline machine (Table I)")
    Term.(const run $ const ())

(* ------------------------------- run ----------------------------- *)

let scheme_arg =
  let doc =
    "Scheme: " ^ String.concat ", " (List.map Critics.Scheme.name Critics.Scheme.all)
  in
  Arg.(value & opt string "critic" & info [ "scheme" ] ~doc)

let run_cmd =
  let run app scheme instrs =
    let profile = or_die (lookup_app app) in
    let scheme =
      match Critics.Scheme.of_string scheme with
      | Some s -> s
      | None ->
        prerr_endline ("unknown scheme " ^ scheme);
        exit 1
    in
    let ctx = Critics.Run.prepare ~instrs profile in
    let base = Critics.Run.stats ctx Critics.Scheme.Baseline in
    let st = Critics.Run.stats ctx scheme in
    Printf.printf "%s / %s (%d work instructions)\n\n" profile.name
      (Critics.Scheme.name scheme) instrs;
    print_endline (Pipeline.Stats.render st);
    if scheme <> Critics.Scheme.Baseline then begin
      Printf.printf "\nspeedup over baseline: %s\n"
        (Util.Stats.pct (Critics.Run.speedup ~base st));
      let e = Critics.Run.energy ~base st in
      Printf.printf "system energy saving:  %s (CPU-only %s)\n"
        (Util.Stats.pct e.system) (Util.Stats.pct e.cpu_only)
    end
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate one application under one scheme")
    Term.(const run $ app_arg $ scheme_arg $ instrs_arg)

(* ----------------------------- compare --------------------------- *)

let compare_cmd =
  let run app instrs =
    let profile = or_die (lookup_app app) in
    let ctx = Critics.Run.prepare ~instrs profile in
    let base = Critics.Run.stats ctx Critics.Scheme.Baseline in
    Printf.printf "%s: baseline %d cycles, IPC %.2f\n\n" profile.name
      base.cycles (Pipeline.Stats.ipc base);
    let rows =
      List.map
        (fun scheme ->
          let st = Critics.Run.stats ctx scheme in
          [
            Critics.Scheme.name scheme;
            string_of_int st.Pipeline.Stats.cycles;
            Util.Stats.pct (Critics.Run.speedup ~base st);
            Util.Stats.pct
              (float_of_int st.thumb_committed
              /. float_of_int (max 1 st.committed_total));
          ])
        Critics.Scheme.all
    in
    print_endline
      (Util.Text_table.render
         ~header:[ "scheme"; "cycles"; "speedup"; "16-bit instrs" ]
         rows)
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Run every scheme on one application")
    Term.(const run $ app_arg $ instrs_arg)

(* ----------------------------- profile --------------------------- *)

let profile_cmd =
  let save_arg =
    let doc = "Write the CritIC database to $(docv) (text format)." in
    Arg.(value & opt (some string) None & info [ "save" ] ~docv:"FILE" ~doc)
  in
  let run app instrs save =
    let profile = or_die (lookup_app app) in
    let ctx = Critics.Run.prepare ~instrs profile in
    let db = ctx.db in
    (match save with
    | Some path ->
      Profiler.Db_io.save db path;
      Printf.printf "database written to %s\n" path
    | None -> ());
    Printf.printf "%s: %d CritIC sites, coverage %s (convertible %s)\n\n"
      profile.name
      (List.length db.sites)
      (Util.Stats.pct (Profiler.Critic_db.coverage db))
      (Util.Stats.pct (Profiler.Critic_db.convertible_coverage db));
    let top = List.filteri (fun i _ -> i < 15) db.sites in
    print_endline
      (Util.Text_table.render
         ~header:
           [ "block"; "len"; "occurrences"; "criticality"; "convertible";
             "chain" ]
         (List.map
            (fun (s : Profiler.Critic_db.site) ->
              [
                string_of_int s.block_id;
                string_of_int (Profiler.Critic_db.site_length s);
                string_of_int s.occurrences;
                Printf.sprintf "%.1f" s.criticality;
                (if s.convertible then "yes" else "no");
                s.key;
              ])
            top))
  in
  Cmd.v
    (Cmd.info "profile" ~doc:"Show the CritIC database of an application")
    Term.(const run $ app_arg $ instrs_arg $ save_arg)

(* --------------------------- characterize ------------------------- *)

let characterize_cmd =
  let run app instrs =
    let profile = or_die (lookup_app app) in
    let _, trace = Workload.Gen.trace ~instrs profile in
    Printf.printf "%s — %s\n\n%s\n" profile.name profile.activity
      (Workload.Characterize.render (Workload.Characterize.of_trace trace))
  in
  Cmd.v
    (Cmd.info "characterize"
       ~doc:"Summarize an application's dynamic instruction stream")
    Term.(const run $ app_arg $ instrs_arg)

(* ------------------------------ schemes --------------------------- *)

let schemes_cmd =
  let run () =
    List.iter
      (fun s ->
        Printf.printf "%-16s %s\n" (Critics.Scheme.name s)
          (Critics.Scheme.describe s))
      Critics.Scheme.all
  in
  Cmd.v
    (Cmd.info "schemes" ~doc:"List the code-generation schemes")
    Term.(const run $ const ())

(* ---------------------------- experiment -------------------------- *)

let experiment_cmd =
  let id_arg =
    let doc =
      "Experiment id (tab1, tab2, fig1, ..., ablations, nanopass, \
       policy-lab) or `all'."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let jobs_arg =
    let doc =
      "Domains to evaluate simulations on (default: CRITICS_JOBS if set, \
       else the machine's recommended domain count).  Results are \
       bit-identical for every value."
    in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let run id instrs jobs =
    let h = Experiments.Harness.create ~instrs ?jobs () in
    if id = "all" then Experiments.run_all h
    else
      match Experiments.find id with
      | Some e ->
        Experiments.prewarm ~only:e h;
        print_endline (e.render h)
      | None ->
        prerr_endline
          ("unknown experiment; available: all "
          ^ String.concat " "
              (List.map
                 (fun (e : Experiments.entry) -> e.id)
                 (Experiments.all @ Experiments.extra)));
        exit 1
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate a table/figure of the paper (or `all')")
    Term.(const run $ id_arg $ instrs_arg $ jobs_arg)

(* ------------------------------- trace ---------------------------- *)

let parse_scheme name =
  match Critics.Scheme.of_string name with
  | Some s -> s
  | None ->
    prerr_endline ("unknown scheme " ^ name);
    exit 1

let window_arg =
  let doc = "Telemetry attribution window in cycles." in
  Arg.(value & opt int 1024 & info [ "window" ] ~docv:"CYCLES" ~doc)

let app_opt_arg =
  let doc = "Application name (see `critics apps' for the list)." in
  Arg.(required & opt (some string) None & info [ "app" ] ~docv:"APP" ~doc)

let trace_cmd =
  let scheme_arg =
    let doc =
      "Scheme: "
      ^ String.concat ", " (List.map Critics.Scheme.name Critics.Scheme.all)
    in
    Arg.(value & opt string "critic" & info [ "scheme" ] ~doc)
  in
  let out_arg =
    let doc = "Write the Chrome/Perfetto trace-event JSON to $(docv)." in
    Arg.(value & opt string "trace.json" & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let events_arg =
    let doc =
      "Trace ring capacity in events; the oldest events are dropped once \
       it fills, keeping memory bounded."
    in
    Arg.(value & opt int 65536 & info [ "events" ] ~docv:"N" ~doc)
  in
  let export app scheme instrs window out events =
    let profile = or_die (lookup_app app) in
    let scheme = parse_scheme scheme in
    let ctx = Critics.Run.prepare ~instrs profile in
    let trace = Telemetry.Chrome_trace.create ~capacity:events () in
    let probe = Telemetry.Probe.create ~window ~trace () in
    let st = Critics.Run.stats ~probe ctx scheme in
    Telemetry.Chrome_trace.write_file trace out;
    Printf.printf
      "%s / %s: %d cycles, %d committed; %d trace events (%d dropped) -> %s\n"
      profile.name
      (Critics.Scheme.name scheme)
      st.Pipeline.Stats.cycles st.committed_total
      (Telemetry.Chrome_trace.length trace)
      (Telemetry.Chrome_trace.dropped trace)
      out;
    Printf.printf "open in https://ui.perfetto.dev or chrome://tracing\n"
  in
  let export_term =
    Term.(
      const export $ app_opt_arg $ scheme_arg $ instrs_arg $ window_arg
      $ out_arg $ events_arg)
  in
  let export_cmd =
    Cmd.v
      (Cmd.info "export"
         ~doc:
           "Export a Chrome/Perfetto trace of one run (the default when no \
            subcommand is given)")
      export_term
  in
  let pack_cmd =
    let pack_out_arg =
      let doc = "Write the binary trace pack to $(docv)." in
      Arg.(value & opt string "trace.cpk" & info [ "out" ] ~docv:"FILE" ~doc)
    in
    let verify_arg =
      let doc =
        "After recording, mmap the pack back and replay it against a \
         second live walk, requiring bit-identical events."
      in
      Arg.(value & flag & info [ "verify" ] ~doc)
    in
    let run app scheme instrs out verify =
      let profile = or_die (lookup_app app) in
      let scheme = parse_scheme scheme in
      let ctx = Critics.Run.prepare ~instrs profile in
      let n = Prog.Trace.Pack.record ~path:out (Critics.Run.stream ctx scheme) in
      let g = Gc.quick_stat () in
      let bytes = (Unix.stat out).Unix.st_size in
      Printf.printf "%s / %s: %d events, %d bytes -> %s\n" profile.name
        (Critics.Scheme.name scheme) n bytes out;
      Printf.printf "gc: major_words %.0f, top_heap_words %d\n" g.Gc.major_words
        g.Gc.top_heap_words;
      if verify then begin
        match Prog.Trace.Pack.open_file out with
        | Error msg ->
          Printf.eprintf "verify FAILED: %s\n" msg;
          exit 1
        | Ok pk ->
          let program = Critics.Run.transformed ctx scheme in
          let replay = Prog.Trace.Pack.cursor pk program in
          let live = Critics.Run.stream ctx scheme in
          let compared = ref 0 in
          let rec go () =
            let a = Prog.Trace.Stream.next_ev replay in
            let b = Prog.Trace.Stream.next_ev live in
            let fin = Prog.Trace.Stream.end_marker in
            if a == fin && b == fin then ()
            else if a == fin || b == fin then begin
              Printf.eprintf "verify FAILED: event count mismatch at %d\n"
                !compared;
              exit 1
            end
            else if a <> b then begin
              Printf.eprintf "verify FAILED: event %d diverges (uid %d vs %d)\n"
                !compared a.instr.uid b.instr.uid;
              exit 1
            end
            else begin
              incr compared;
              go ()
            end
          in
          go ();
          Printf.printf "verify: %d events replayed bit-identical\n" !compared
      end
    in
    Cmd.v
      (Cmd.info "pack"
         ~doc:
           "Record one scheme's event stream into a compact binary trace \
            pack (length-framed, digest-verified; replayable via mmap in \
            O(batch) memory)")
      Term.(
        const run $ app_opt_arg $ scheme_arg $ instrs_arg $ pack_out_arg
        $ verify_arg)
  in
  let info_cmd =
    let file_arg =
      let doc = "Trace pack file to inspect." in
      Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
    in
    let run file =
      match Prog.Trace.Pack.open_file file with
      | Error msg ->
        Printf.eprintf "%s: %s\n" file msg;
        exit 1
      | Ok pk ->
        Printf.printf "file:    %s\n" file;
        Printf.printf "version: %d\n" Prog.Trace.Pack.version;
        Printf.printf "events:  %d\n" (Prog.Trace.Pack.count pk);
        Printf.printf "bytes:   %d (%d header + %d x %d records)\n"
          (Prog.Trace.Pack.file_bytes pk)
          Prog.Trace.Pack.header_bytes
          (Prog.Trace.Pack.count pk)
          Prog.Trace.Pack.record_bytes;
        Printf.printf "digest:  verified\n"
    in
    Cmd.v
      (Cmd.info "info"
         ~doc:
           "Print a trace pack's header: format version, event count and \
            length framing (opening verifies the payload digest)")
      Term.(const run $ file_arg)
  in
  Cmd.group ~default:export_term
    (Cmd.info "trace"
       ~doc:
         "Trace tooling: export a Chrome/Perfetto trace of one run \
          (default), record a binary trace pack, or inspect one")
    [ export_cmd; pack_cmd; info_cmd ]

(* ------------------------------- report --------------------------- *)

let report_cmd =
  let schemes_arg =
    let doc =
      "Comma-separated schemes to report (default: \
       baseline,critic,opp16+critic)."
    in
    Arg.(
      value
      & opt string "baseline,critic,opp16+critic"
      & info [ "schemes" ] ~doc)
  in
  let run app instrs window schemes =
    let profile = or_die (lookup_app app) in
    let schemes =
      List.map parse_scheme (String.split_on_char ',' schemes)
    in
    let ctx = Critics.Run.prepare ~instrs profile in
    let runs =
      List.map
        (fun scheme ->
          let probe = Telemetry.Probe.create ~window () in
          let st = Critics.Run.stats ~probe ctx scheme in
          (scheme, st, probe))
        schemes
    in
    Printf.printf "%s (%d work instructions, window %d cycles)\n\n"
      profile.name instrs window;
    (* CPI stacks: per-stage cycles per committed instruction, the
       paper's Fig. 3 decomposition, one row per scheme. *)
    let stack_table pop_name pop =
      let rows =
        List.map
          (fun (scheme, (st : Pipeline.Stats.t), probe) ->
            let t : Telemetry.Probe.stage_totals =
              Telemetry.Probe.totals probe pop
            in
            let per x =
              if t.count = 0 then "-"
              else Printf.sprintf "%.3f" (float_of_int x /. float_of_int t.count)
            in
            [
              Critics.Scheme.name scheme;
              string_of_int st.cycles;
              string_of_int t.count;
              per t.fetch_i;
              per t.fetch_rd;
              per t.decode;
              per t.rename;
              per t.issue_wait;
              per t.execute;
              per t.commit_wait;
            ])
          runs
      in
      Printf.printf "CPI stack — %s population (cycles/instr)\n%s\n" pop_name
        (Util.Text_table.render
           ~header:
             [ "scheme"; "cycles"; "count"; "f.stall_i"; "f.stall_r+d";
               "decode"; "rename"; "issue"; "execute"; "commit" ]
           rows)
    in
    stack_table "all" Telemetry.Probe.All;
    stack_table "critical" Telemetry.Probe.Critical;
    stack_table "chain" Telemetry.Probe.Chain;
    let chain_rows =
      List.filter_map
        (fun (scheme, _, probe) ->
          let reg = Telemetry.Probe.registry probe in
          let h = Telemetry.Registry.histogram reg "chain/latency" in
          if Telemetry.Registry.hist_count h = 0 then None
          else
            Some
              [
                Critics.Scheme.name scheme;
                string_of_int (Telemetry.Registry.hist_count h);
                string_of_int (Telemetry.Registry.quantile h 0.50);
                string_of_int (Telemetry.Registry.quantile h 0.90);
                string_of_int (Telemetry.Registry.quantile h 0.99);
                string_of_int (Telemetry.Registry.hist_max h);
              ])
        runs
    in
    if chain_rows <> [] then
      Printf.printf
        "chain latency — dispatch of first member to commit of last \
         (cycles)\n%s\n"
        (Util.Text_table.render
           ~header:[ "scheme"; "chains"; "p50"; "p90"; "p99"; "max" ]
           chain_rows)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Print per-population CPI stacks and CritIC chain-latency \
          quantiles from the cycle-attribution telemetry")
    Term.(const run $ app_opt_arg $ instrs_arg $ window_arg $ schemes_arg)

(* ------------------------------- check ---------------------------- *)

let check_cmd =
  let cases_arg =
    let doc =
      "Fuzzed programs to run through the differential harness (in \
       addition to the seed applications)."
    in
    Arg.(value & opt int 200 & info [ "cases" ] ~docv:"N" ~doc)
  in
  let seed_arg =
    let doc = "Base fuzz seed; case $(i) uses seed SEED+$(i)." in
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"SEED" ~doc)
  in
  let per_pass_arg =
    let doc =
      "Additionally run every nanopass pipeline variant with the \
       architectural checker armed after every individual pass, \
       attributing any divergence to the exact stage that introduced it."
    in
    Arg.(value & flag & info [ "per-pass" ] ~doc)
  in
  let run cases seed per_pass =
    let module D = Oracle.Differential in
    let failures = ref 0 in
    let events = ref 0 in
    let pipelines = ref 0 in
    let report label = function
      | Ok n -> events := !events + n
      | Error msg ->
        incr failures;
        Printf.eprintf "FAIL %-24s %s\n%!" label msg
    in
    (* [check_program] is [prepare] + [check_prepared]; preparing here
       lets --per-pass reuse the walk/trace/profile for the pipeline
       sweep without changing what the default mode runs. *)
    let check_pipelines label prepared =
      match D.check_pipelines prepared with
      | Ok n -> pipelines := !pipelines + n
      | Error msg ->
        incr failures;
        Printf.eprintf "FAIL %-24s %s\n%!" (label ^ " per-pass") msg
    in
    Printf.printf
      "differential check: %d apps x %d machine configs, then %d fuzzed \
       programs%s\n%!"
      (List.length Workload.Apps.all)
      (List.length D.configs) cases
      (if per_pass then " (per-pass pipeline checks on)" else "");
    List.iter
      (fun (p : Workload.Profile.t) ->
        let prepared =
          D.prepare ~instrs:1_500 (Workload.Gen.program p)
            ~seed:(p.seed lxor 0x5EED)
        in
        report p.name (D.check_prepared prepared);
        if per_pass then check_pipelines p.name prepared)
      Workload.Apps.all;
    let fuzz_configs =
      List.filter
        (fun (name, _) -> List.mem name [ "table_i"; "narrow2"; "wrong_path" ])
        D.configs
    in
    for i = 0 to cases - 1 do
      let s = seed + i in
      let program = Workload.Fuzz.program_of_seed s in
      let prepared = D.prepare ~instrs:500 program ~seed:((s * 7) + 1) in
      (match
         D.check_prepared ~configs:fuzz_configs ~variant_configs:fuzz_configs
           prepared
       with
      | Ok n -> events := !events + n
      | Error msg ->
        incr failures;
        Printf.eprintf "FAIL fuzz seed %d: %s\ngenome:\n%s\n%!" s msg
          (Workload.Fuzz.to_string (Workload.Fuzz.spec_of_seed s)));
      if per_pass then
        check_pipelines (Printf.sprintf "fuzz seed %d" s) prepared
    done;
    if !failures = 0 then begin
      Printf.printf "ok: %d retirements compared, no divergence\n" !events;
      if per_pass then
        Printf.printf
          "per-pass: %d pipeline variants checked after every pass\n"
          !pipelines
    end
    else begin
      Printf.eprintf "%d check(s) failed\n" !failures;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Differentially test the simulator, the trace expander and every \
          transform against the golden architectural model")
    Term.(const run $ cases_arg $ seed_arg $ per_pass_arg)

(* ------------------------------ cache ----------------------------- *)

let cache_cmd =
  let dir_arg =
    let doc =
      "Cache directory (default: the $(b,CRITICS_CACHE_DIR) environment \
       variable)."
    in
    Arg.(value & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)
  in
  let open_store dir =
    match dir with
    | Some d -> Store.open_dir d
    | None -> (
      match Store.open_default () with
      | Some st -> st
      | None ->
        prerr_endline
          "critics cache: no cache directory — set CRITICS_CACHE_DIR or \
           pass --dir";
        exit 1)
  in
  let stat dir =
    let st = open_store dir in
    Printf.printf "dir:     %s\n" (Store.dir st);
    Printf.printf "format:  %s\n" Store.format_version;
    Printf.printf "code:    %s\n" (Store.code_version ());
    Printf.printf "entries: %d\n" (Store.entry_count st);
    Printf.printf "bytes:   %d\n" (Store.total_bytes st)
  in
  let clear dir =
    let st = open_store dir in
    let removed = Store.clear st in
    Printf.printf "removed %d entr%s from %s\n" removed
      (if removed = 1 then "y" else "ies")
      (Store.dir st)
  in
  let stat_cmd =
    Cmd.v
      (Cmd.info "stat"
         ~doc:
           "Show the store's location, versions, entry count and on-disk \
            size")
      Term.(const stat $ dir_arg)
  in
  let clear_cmd =
    Cmd.v
      (Cmd.info "clear" ~doc:"Remove every cached entry")
      Term.(const clear $ dir_arg)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Inspect or clear the prepared-context store (the on-disk cache \
          bench and the harness reuse across runs when CRITICS_CACHE_DIR \
          is set)")
    [ stat_cmd; clear_cmd ]

(* ------------------------------ main ----------------------------- *)

let () =
  let info =
    Cmd.info "critics" ~version:Critics.version
      ~doc:"CritICs: critical instruction chains for mobile apps (MICRO'18)"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [ apps_cmd; config_cmd; schemes_cmd; run_cmd; compare_cmd;
            profile_cmd; characterize_cmd; experiment_cmd; trace_cmd;
            report_cmd; check_cmd; cache_cmd ]))
