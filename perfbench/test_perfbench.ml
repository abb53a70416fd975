(* The benchmark's own tests.

     test_perfbench.exe          metric names, the percentile rule, and
                                 tiny-budget runs of prepare-sweep
     test_perfbench.exe --smoke  tiny-budget runs of the paper workloads

   Runs go through main.exe, from a directory holding it, expected.txt
   and ../BENCHMARK.json (the dune rules arrange this). *)

open Perfbench

let failures = ref 0

let check name ok =
  if not ok then incr failures;
  Printf.printf "%s %s\n%!" (if ok then "ok  " else "FAIL") name

let tiny = "500"

let json_file path = Util.Json.parse (In_channel.with_open_text path In_channel.input_all)
let bench = json_file "../BENCHMARK.json"

let names key =
  List.map
    (fun m -> (Util.Json.str (Util.Json.field "name" m), Util.Json.str (Util.Json.field "unit" m)))
    (Util.Json.arr (Util.Json.field key bench))

type result = { json : Util.Json.t; stdout : string; stderr : string }

(* Run main.exe with [args] and [env] added to the environment; its
   exit status, standard output and standard error. *)
let exec ?(env = []) ?(expected = "expected.txt") ?(instrs = tiny) args =
  let argv =
    Array.of_list
      ([ "./main.exe"; "--seed"; "7"; "--seconds"; "1"; "--instrs"; instrs; "--expected"; expected ]
      @ args)
  in
  let env = Array.append (Unix.environment ()) (Array.of_list env) in
  let out, inp, err = Unix.open_process_args_full argv.(0) argv env in
  close_out inp;
  let stdout = In_channel.input_all out and stderr = In_channel.input_all err in
  (Unix.close_process_full (out, inp, err), stdout, stderr)

(* A run that must succeed, with its result line parsed. *)
let main ?env ?expected args =
  let status, stdout, stderr = exec ?env ?expected args in
  if status <> Unix.WEXITED 0 then failwith ("main.exe failed: " ^ stderr);
  let lines = String.split_on_char '\n' (String.trim stdout) in
  { json = Util.Json.parse (List.nth lines (List.length lines - 1)); stdout; stderr }

let num r k = Util.Json.num (Util.Json.field k r.json)
let correct r = Util.Json.field "correct" r.json = Util.Json.Bool true
let metric_names r = List.map fst (Util.Json.obj (Util.Json.field "metrics" r.json))
let metric r name = Util.Json.num (Util.Json.field "value" (Util.Json.field name (Util.Json.field "metrics" r.json)))

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The combined output digest from the report's first line. *)
let digest r = Scanf.sscanf (List.hd (String.split_on_char '\n' r.stdout)) "%_s@; digest %s" Fun.id

let clean_run name r =
  check (name ^ ": correct, no failed operation") (correct r && num r "failed" = 0. && num r "attempted" >= 1.);
  check (name ^ ": outputs checked against recorded digests")
    (contains r.stdout "checked against recorded digests")

let traced name r =
  clean_run name r;
  check (name ^ ": traced run prints exactly the per-layer metrics")
    (metric_names r = List.map fst Catalog.per_layer);
  check (name ^ ": trace coverage >= 0.95") (metric r "trace.coverage" >= 0.95);
  let chrome =
    In_channel.with_open_text
      (Printf.sprintf "_perfbench/traces/%s-seed7.trace.json" name)
      In_channel.input_all
  in
  check (name ^ ": span export validates as a Chrome trace")
    (match Telemetry.Chrome_trace.validate chrome with Ok n -> n > 0 | Error _ -> false)

let catalog () =
  check "end-to-end metrics match BENCHMARK.json" (names "end_to_end" = Catalog.end_to_end);
  check "per-layer metrics match BENCHMARK.json" (names "per_layer" = Catalog.per_layer);
  check "workloads match BENCHMARK.json"
    (List.map (fun w -> Util.Json.str (Util.Json.field "name" w)) (Util.Json.arr (Util.Json.field "workloads" bench))
    = Workloads.names);
  check "metric names use [A-Za-z0-9_.-]"
    (List.for_all (fun (n, _) -> Catalog.valid_name n)
       (Catalog.end_to_end @ Catalog.report_only @ Catalog.per_layer));
  check "charset rejects others" (not (Catalog.valid_name "a b") && not (Catalog.valid_name "a/b"))

let percentile () =
  let xs n = List.init n (fun i -> float_of_int (i + 1)) in
  check "p90 refused with 9 samples beyond" (Sample.percentile 90. (xs 99) = None);
  check "p90 with 10 samples beyond" (Sample.percentile 90. (xs 100) = Some 90.);
  check "p50 refused with 9 samples beyond" (Sample.percentile 50. (xs 19) = None);
  check "p50 with 10 samples beyond" (Sample.percentile 50. (xs 20) = Some 10.);
  check "median" (Sample.median [ 3.; 1.; 2.; 10. ] = 2.5)

let prepare () =
  let cache = Filename.concat (Sys.getcwd ()) "inherited-cache" in
  let r =
    main
      ~env:
        [ "CRITICS_CACHE_DIR=" ^ cache; "CRITICS_TRACE_PACK=1"; "CRITICS_JOBS=2";
          "CRITICS_BENCH_INSTRS=9" ]
      [ "--workload"; "prepare-sweep"; "--trace"; "0" ]
  in
  clean_run "prepare-sweep" r;
  check "prepare-sweep prints exactly the end-to-end metrics"
    (metric_names r = List.map fst Catalog.end_to_end);
  check "inherited CRITICS_* variables are named and ignored"
    (contains r.stderr "ignoring inherited CRITICS_TRACE_PACK" && not (Sys.file_exists cache));
  check "no BENCH_results.json or BENCH_journal.jsonl written"
    (not (Sys.file_exists "BENCH_results.json") && not (Sys.file_exists "BENCH_journal.jsonl"));
  (* A corrupted recorded digest is a failed operation: every Acrobat
     sample at the tests' budget. *)
  let lines = In_channel.with_open_text "expected.txt" In_channel.input_lines in
  let corrupt l =
    match String.split_on_char ' ' l with
    | [ "prepare"; n; key; d ] when n = tiny && String.starts_with ~prefix:"Acrobat/" key ->
      String.concat " " [ "prepare"; n; key; String.map (fun c -> if c = '0' then '1' else '0') d ]
    | _ -> l
  in
  Out_channel.with_open_text "corrupt.txt" (fun oc ->
      List.iter (fun l -> output_string oc (corrupt l ^ "\n")) lines);
  let r = main ~expected:"corrupt.txt" [ "--workload"; "prepare-sweep"; "--trace"; "0" ] in
  check "a corrupted digest counts as a failed operation"
    (not (correct r) && num r "failed" >= 1.);
  Sys.remove "corrupt.txt";
  let status, stdout, stderr =
    exec ~instrs:"501" [ "--workload"; "prepare-sweep"; "--trace"; "0" ]
  in
  check "a budget with no recorded digests is refused before any run"
    (status = Unix.WEXITED 2 && stdout = "" && contains stderr "no recorded digests");
  let r = main [ "--workload"; "prepare-sweep"; "--trace"; "1" ] in
  traced "prepare-sweep" r;
  check "prepare-sweep traced run measures the toolchain layers"
    (metric r "profiler.profile_ms" > 0. && metric r "transform.hoist_ms" > 0.)

let paper () =
  let cold = main [ "--workload"; "paper-cold"; "--trace"; "0" ] in
  clean_run "paper-cold" cold;
  let warm = main [ "--workload"; "paper-warm"; "--trace"; "1" ] in
  traced "paper-warm" warm;
  check "paper-warm traced run measures the simulator and store layers"
    (metric warm "pipeline.events_per_s" > 0. && metric warm "store.hits" > 0.);
  check "paper-cold and paper-warm print the same outputs" (digest cold = digest warm)

let () =
  if Array.length Sys.argv > 1 && Sys.argv.(1) = "--smoke" then paper ()
  else begin
    catalog ();
    percentile ();
    prepare ()
  end;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
