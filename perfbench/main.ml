(* The repository benchmark.  Run from the repository root:

     dune exec --root . -- ./perfbench/main.exe \
       --workload paper-cold|paper-warm|prepare-sweep|all \
       --seed N --seconds S --trace 0|1

   Prints a human-readable report, then as its last line one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  With
   --trace 0 the metrics are the end-to-end ones, with --trace 1 the
   per-layer ones (spans are also written under _perfbench/traces/).
   --record prints the expected.txt lines of the selected workloads'
   input universe instead. *)

open Perfbench

let ignored_env =
  [ "CRITICS_CACHE_DIR"; "CRITICS_TRACE_PACK"; "CRITICS_JOBS"; "CRITICS_BENCH_INSTRS" ]

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let usage =
  "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 \
   [--instrs N] [--expected FILE] [--record]\n\
   workloads: "
  ^ String.concat ", " (Workloads.names @ [ "all" ])

let fail msg =
  prerr_endline ("perfbench: " ^ msg);
  prerr_endline usage;
  exit 2

let () =
  let workload = ref "" and seed = ref None and seconds = ref None in
  let trace = ref None and instrs = ref None and expected = ref None in
  let record = ref false in
  let int_arg r name v =
    match int_of_string_opt v with
    | Some n -> r := Some n
    | None -> fail (Printf.sprintf "%s: not an integer: %S" name v)
  in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.String (int_arg seed "--seed"), "N input seed");
      ("--seconds", Arg.String (int_arg seconds "--seconds"), "S seconds to measure");
      ("--trace", Arg.String (int_arg trace "--trace"), "0|1 per-layer traced run");
      ("--instrs", Arg.String (int_arg instrs "--instrs"), "N instruction budget override");
      ("--expected", Arg.String (fun f -> expected := Some f), "FILE recorded digests");
      ("--record", Arg.Set record, " print recorded-digest lines");
    ]
  in
  Arg.parse specs (fun a -> fail ("unexpected argument " ^ a)) usage;
  let selected =
    match !workload with
    | "all" -> Workloads.all
    | name -> (
      match Workloads.find name with
      | Some w -> [ w ]
      | None -> fail (Printf.sprintf "unknown workload %S" name))
  in
  (* Hermetic: inherited knobs must not steer the library. *)
  List.iter
    (fun v ->
      match Sys.getenv_opt v with
      | Some x when x <> "" ->
        Printf.eprintf "perfbench: ignoring inherited %s=%s\n%!" v x;
        Unix.putenv v ""
      | _ -> ())
    ignored_env;
  let root = Sys.getcwd () in
  let out = Filename.concat root "_perfbench" in
  let with_workdir name f =
    let dir = Filename.concat out (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
    Workloads.rm_rf dir;
    mkdir_p dir;
    Sys.chdir dir;
    Fun.protect
      ~finally:(fun () ->
        Sys.chdir root;
        Workloads.rm_rf dir)
      (fun () -> f dir)
  in
  if !record then
    (* paper-cold and paper-warm share one table: record it once. *)
    ignore
      (List.fold_left
         (fun tables (Workloads.Workload w as pw) ->
           if List.mem w.table tables then tables
           else begin
             with_workdir w.name (fun workdir ->
                 List.iter print_endline (Workloads.record ?instrs:!instrs ~workdir pw));
             w.table :: tables
           end)
         [] selected)
  else begin
    let seed = match !seed with Some s -> s | None -> fail "--seed is required" in
    let seconds =
      match !seconds with
      | Some s when s >= 1 -> float_of_int s
      | _ -> fail "--seconds must be a whole number >= 1"
    in
    let trace =
      match !trace with
      | Some 0 -> false
      | Some 1 -> true
      | _ -> fail "--trace must be 0 or 1"
    in
    let expected_path =
      Option.value !expected
        ~default:(Filename.concat root (Filename.concat "perfbench" "expected.txt"))
    in
    let expected =
      try Expected.load expected_path
      with Sys_error e | Failure e -> fail ("cannot load digests: " ^ e)
    in
    (* Every output is compared with a recording: refuse a budget that
       has none before running anything. *)
    List.iter
      (fun (Workloads.Workload w) ->
        let instrs = Option.value !instrs ~default:w.default_instrs in
        try ignore (Expected.checker expected ~table:w.table ~instrs)
        with Expected.Unrecorded (table, n) ->
          fail
            (Printf.sprintf "no recorded digests for table %S at budget %d in %s" table n
               expected_path))
      selected;
    let trace_out = Filename.concat out "traces" in
    if trace then mkdir_p trace_out;
    let outcomes =
      List.map
        (fun (Workloads.Workload w) ->
          with_workdir w.name (fun workdir ->
              Workloads.run w ~seed ~seconds ~trace ?instrs:!instrs ~expected ~workdir
                ~trace_out ()))
        selected
    in
    List.iter
      (fun (o : Workloads.outcome) ->
        Printf.printf
          "%s: %d pass(es), %d operation(s), %d failed; digest %s (checked against recorded digests)\n"
          o.name o.passes o.attempted o.failed o.digest;
        List.iter
          (fun (name, v) -> Printf.printf "  %-34s %.6g %s\n" name v (Catalog.unit_of name))
          o.metrics;
        if not trace then
          List.iter
            (fun (name, v, n) ->
              match v with
              | Some v -> Printf.printf "  %-34s %.6g %s (n=%d)\n" name v (Catalog.unit_of name) n
              | None ->
                Printf.printf "  %-34s n/a (n=%d: fewer than 10 samples beyond it)\n" name n)
            o.report)
      outcomes;
    let attempted = List.fold_left (fun a (o : Workloads.outcome) -> a + o.attempted) 0 outcomes in
    let failed = List.fold_left (fun a (o : Workloads.outcome) -> a + o.failed) 0 outcomes in
    let metrics =
      List.concat_map
        (fun (o : Workloads.outcome) ->
          List.map
            (fun (name, v) ->
              let key = if List.length outcomes = 1 then name else o.name ^ "." ^ name in
              ( key,
                Util.Json.Obj
                  [ ("value", Util.Json.Num v); ("unit", Util.Json.Str (Catalog.unit_of name)) ]
              ))
            o.metrics)
        outcomes
    in
    print_endline
      (Util.Json.to_string
         (Util.Json.Obj
            [
              ("correct", Util.Json.Bool (failed = 0));
              ("attempted", Util.Json.Num (float_of_int attempted));
              ("failed", Util.Json.Num (float_of_int failed));
              ("metrics", Util.Json.Obj metrics);
            ]))
  end
