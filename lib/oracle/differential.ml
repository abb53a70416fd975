(* Differential harness: every check runs some pair of independent
   implementations against each other and reports the first divergence
   as an actionable message.

   The comparison chain is:

     Walk.path_for_instrs  ==  Interp's independent walk      (check_walk)
     Trace.expand          ==  Interp's commit-log entries    (check_trace)
     Cpu.run_stream retire ==  Trace minus CDP markers        (check_cpu_trace)
     transformed program   ==  original, per-block digests    (check_transform_pair)

   so a green [check_prepared] means the golden model, the trace
   expander, the walk sampler, the cycle simulator and the compiler
   passes all agree on the architectural behaviour of a program. *)

module T = Prog.Trace

let ( let* ) = Result.bind

(* ----------------------- configuration sweep ----------------------- *)

let configs : (string * Pipeline.Config.t) list =
  let open Pipeline.Config in
  [
    ("table_i", table_i);
    ("2x_fd", with_2x_fd table_i);
    ("4x_icache+backend_prio", with_backend_prio (with_4x_icache table_i));
    ("narrow2", { table_i with width = 2; fetch_bytes = 8 });
    ("free_cdp+efetch", { (with_efetch table_i) with cdp_decode_penalty = 0 });
    ("perfect_bp+clp", with_critical_load_prefetch (with_perfect_branch table_i));
    ("wrong_path", { table_i with wrong_path_fetch = true });
  ]

let sample_config seed =
  List.nth configs (abs seed mod List.length configs)

(* ------------------------------ checks ----------------------------- *)

let check_walk program ~seed ~instrs =
  let reference = Prog.Walk.path_for_instrs program ~seed ~instrs in
  let oracle = (Interp.run program ~seed ~instrs).Interp.path in
  if reference = oracle then Ok ()
  else if Array.length reference <> Array.length oracle then
    Error
      (Printf.sprintf "walk divergence: %d visits (Walk) vs %d (oracle)"
         (Array.length reference) (Array.length oracle))
  else begin
    let i = ref 0 in
    while reference.(!i) = oracle.(!i) do incr i done;
    Error
      (Printf.sprintf
         "walk divergence at visit %d: block %d (Walk) vs block %d (oracle)"
         !i reference.(!i) oracle.(!i))
  end

let check_trace program ~seed ~path =
  let trace = T.expand program ~seed path in
  let oracle = Interp.run_path program ~seed path in
  let entries = oracle.Interp.log.Commit_log.entries in
  let ne = Array.length entries and nt = Array.length trace in
  if ne <> nt then
    Error
      (Printf.sprintf "trace divergence: %d events (Trace) vs %d (oracle)" nt
         ne)
  else begin
    let err = ref None in
    let fail i fmt =
      Printf.ksprintf
        (fun msg ->
          if !err = None then
            err :=
              Some
                (Printf.sprintf "trace divergence at event %d (uid %d): %s" i
                   trace.(i).T.instr.Isa.Instr.uid msg))
        fmt
    in
    Array.iteri
      (fun i (e : Commit_log.entry) ->
        let ev = trace.(i) in
        if e.Commit_log.uid <> ev.T.instr.Isa.Instr.uid then
          fail i "uid %d (oracle)" e.Commit_log.uid;
        if e.Commit_log.pc <> ev.T.pc then
          fail i "pc %#x (Trace) vs %#x (oracle)" ev.T.pc e.Commit_log.pc;
        if e.Commit_log.block_id <> ev.T.block_id then
          fail i "block %d (Trace) vs %d (oracle)" ev.T.block_id
            e.Commit_log.block_id;
        let addr = Commit_log.mem_addr_of_entry e in
        if addr <> ev.T.mem_addr then
          fail i "mem addr %#x (Trace) vs %#x (oracle)" ev.T.mem_addr addr;
        if Commit_log.taken_of_entry e <> ev.T.taken then
          fail i "taken %b (Trace) vs %b (oracle)" ev.T.taken
            (Commit_log.taken_of_entry e))
      entries;
    match !err with
    | Some msg -> Error msg
    | None ->
      if oracle.Interp.work_instrs <> T.work_count trace then
        Error
          (Printf.sprintf "work count: %d (Trace) vs %d (oracle)"
             (T.work_count trace) oracle.Interp.work_instrs)
      else Ok oracle
  end

let check_cpu_trace ?(warm = true) ~config trace =
  let expected =
    Array.of_seq
      (Seq.filter
         (fun (e : T.event) -> e.T.instr.Isa.Instr.opcode <> Isa.Opcode.Cdp_switch)
         (Array.to_seq trace))
  in
  let nexp = Array.length expected in
  let pos = ref 0 in
  let err = ref None in
  let on_commit (c : Pipeline.Cpu.commit) =
    if !err = None then begin
      if c.Pipeline.Cpu.commit_seq <> !pos then
        err :=
          Some
            (Printf.sprintf "commit seq %d, expected %d"
               c.Pipeline.Cpu.commit_seq !pos)
      else if !pos >= nexp then
        err := Some (Printf.sprintf "extra retirement past %d events" nexp)
      else begin
        let want = expected.(!pos) in
        let got = c.Pipeline.Cpu.event in
        if got.T.seq <> want.T.seq then
          err :=
            Some
              (Printf.sprintf
                 "retirement %d: trace event %d (uid %d), expected event %d \
                  (uid %d)"
                 !pos got.T.seq got.T.instr.Isa.Instr.uid want.T.seq
                 want.T.instr.Isa.Instr.uid)
      end;
      incr pos
    end
  in
  let stats =
    Pipeline.Cpu.run_stream ~warm ~checks:true ~on_commit config (fun () ->
        Prog.Trace.Stream.of_trace trace)
  in
  match !err with
  | Some msg -> Error ("cpu divergence: " ^ msg)
  | None ->
    if !pos <> nexp then
      Error
        (Printf.sprintf "cpu divergence: %d retirements, expected %d" !pos nexp)
    else begin
      let cdp =
        Array.fold_left
          (fun acc (e : T.event) ->
            if e.T.instr.Isa.Instr.opcode = Isa.Opcode.Cdp_switch then acc + 1
            else acc)
          0 trace
      in
      let open Pipeline.Stats in
      if stats.committed_total <> Array.length trace then
        Error
          (Printf.sprintf "stats divergence: committed_total %d <> %d events"
             stats.committed_total (Array.length trace))
      else if stats.cdp_markers <> cdp then
        Error
          (Printf.sprintf "stats divergence: cdp_markers %d <> %d in trace"
             stats.cdp_markers cdp)
      else if stats.committed_work <> T.work_count trace then
        Error
          (Printf.sprintf "stats divergence: committed_work %d <> %d in trace"
             stats.committed_work (T.work_count trace))
      else if stats.stage_all.count <> stats.committed_total - stats.cdp_markers
      then
        Error
          (Printf.sprintf
             "stats divergence: stage count %d <> committed %d - markers %d"
             stats.stage_all.count stats.committed_total stats.cdp_markers)
      else Ok nexp
    end

(* Record the walk into a binary pack, replay it through the mmap
   cursor, and require bit-identical events — every field, including
   the resolved instruction (structural equality: terminator
   instructions are re-synthesized on both sides). *)
let check_pack program ~seed ~path =
  let live =
    T.Stream.to_trace (T.Stream.of_program program ~seed path)
  in
  let tmp = Filename.temp_file "critics-pack" ".cpk" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      let n =
        T.Pack.record ~path:tmp (T.Stream.of_program program ~seed path)
      in
      if n <> Array.length live then
        Error
          (Printf.sprintf "pack recorded %d events, live walk yields %d" n
             (Array.length live))
      else
        match T.Pack.open_file tmp with
        | Error e -> Error ("pack fails verification after record: " ^ e)
        | Ok pk ->
          let replay = T.Stream.to_trace (T.Pack.cursor pk program) in
          if Array.length replay <> n then
            Error
              (Printf.sprintf "pack replay yields %d events, recorded %d"
                 (Array.length replay) n)
          else begin
            let rec go i =
              if i = n then Ok n
              else if replay.(i) = live.(i) then go (i + 1)
              else
                let r = replay.(i) and l = live.(i) in
                Error
                  (Printf.sprintf
                     "pack replay diverges at seq %d: replay \
                      (uid %d pc %#x next %#x mem %d) vs live \
                      (uid %d pc %#x next %#x mem %d)"
                     i r.T.instr.Isa.Instr.uid r.T.pc r.T.next_pc r.T.mem_addr
                     l.T.instr.Isa.Instr.uid l.T.pc l.T.next_pc l.T.mem_addr)
            in
            go 0
          end)

let check_transform_pair ~original ~transformed ~seed ~path =
  let a = Interp.run_path original ~seed path in
  let b = Interp.run_path transformed ~seed path in
  if Commit_log.arch_equivalent a.Interp.log b.Interp.log then Ok ()
  else
    match Commit_log.first_divergence a.Interp.log b.Interp.log with
    | None -> Error "oracle divergence (unlocated)"
    | Some d ->
      let where =
        if d.Commit_log.at < Array.length path then
          Printf.sprintf " (visit %d, block %d)" d.Commit_log.at
            path.(d.Commit_log.at)
        else ""
      in
      Error
        (Printf.sprintf "oracle divergence at %d%s: %s vs %s" d.Commit_log.at
           where d.Commit_log.expected d.Commit_log.got)

(* --------------------- whole-program check suite ------------------- *)

type prepared = {
  program : Prog.Program.t;
  seed : int;
  instrs : int;
  path : Prog.Walk.path;
  trace : T.t;
  db : Profiler.Critic_db.t;
}

let prepare ?(instrs = 2_000) program ~seed =
  let path = Prog.Walk.path_for_instrs program ~seed ~instrs in
  let trace = T.expand program ~seed path in
  let db = Profiler.Profile_run.profile trace in
  { program; seed; instrs; path; trace; db }

let transform_variants p =
  let critic options =
    fst (Transform.Critic_pass.apply ~options p.db p.program)
  in
  let default = Transform.Critic_pass.default_options in
  [
    ("hoist", critic { default with mode = Transform.Critic_pass.Hoist_only });
    ("critic", critic default);
    ("critic_ideal", critic Transform.Critic_pass.ideal_options);
    ( "critic_branches",
      critic { default with mode = Transform.Critic_pass.Branches } );
    ( "narrow_only",
      fst
        (Transform.Pipeline.run_exn
           (Transform.Pass.env p.db)
           Transform.Pipeline.narrow_only p.program) );
    ("opp16", fst (Transform.Thumb.opp16 p.program));
    ("compress", fst (Transform.Thumb.compress p.program));
    ("opp16_critic", fst (Transform.Thumb.opp16 (critic default)));
  ]

(* ---------------------- per-pass pipeline checks ------------------- *)

let pipeline_variants p =
  let default = Transform.Critic_pass.default_options in
  let case name options passes =
    (name, Transform.Pass.env ~options p.db, passes)
  in
  let canonical name options =
    case name options (Transform.Pipeline.canonical options)
  in
  [
    canonical "hoist" { default with mode = Transform.Critic_pass.Hoist_only };
    canonical "critic" default;
    canonical "critic_ideal" Transform.Critic_pass.ideal_options;
    canonical "critic_branches"
      { default with mode = Transform.Critic_pass.Branches };
    canonical "macro" { default with mode = Transform.Critic_pass.Fused_macro };
    case "narrow_only" default Transform.Pipeline.narrow_only;
    case "narrow_before_hoist" default Transform.Pipeline.reordered;
  ]

let pass_check p ~pass:_ ~before:_ ~after =
  (* Every stage must stay equivalent to the *source* program: switch
     markers are dataflow- and architecture-transparent, so both the
     static per-block summaries and the golden model's commit digests
     are stage invariants.  Checking against the source rather than the
     previous stage pins divergence to the first pass that breaks. *)
  let* () =
    Result.map
      (fun _ -> ())
      (Transform.Verify.check_pass (fun _ -> (after, ())) p.program)
  in
  check_transform_pair ~original:p.program ~transformed:after ~seed:p.seed
    ~path:p.path

let check_pipeline p (name, env, passes) =
  match
    Transform.Pipeline.run ~check:(pass_check p) env passes p.program
  with
  | Ok (program', _) -> Ok program'
  | Error e ->
    Error
      (Printf.sprintf "[%s/%s] %s" name e.Transform.Pipeline.failed_pass
         e.Transform.Pipeline.detail)

let check_pipelines p =
  List.fold_left
    (fun acc v ->
      let* n = acc in
      let* _ = check_pipeline p v in
      Ok (n + 1))
    (Ok 0) (pipeline_variants p)

let in_context name r =
  Result.map_error (fun msg -> Printf.sprintf "[%s] %s" name msg) r

let check_variant ?(configs = configs) p (name, program') =
  let* () =
    in_context name
      (if Transform.Verify.program_equivalent p.program program' then Ok ()
       else Error "Verify.program_equivalent failed")
  in
  let* () =
    in_context name
      (check_transform_pair ~original:p.program ~transformed:program'
         ~seed:p.seed ~path:p.path)
  in
  let* _ = in_context name (check_trace program' ~seed:p.seed ~path:p.path) in
  let* _ =
    in_context (name ^ "/pack")
      (check_pack program' ~seed:p.seed ~path:p.path)
  in
  let trace' = T.expand program' ~seed:p.seed p.path in
  List.fold_left
    (fun acc (cname, config) ->
      let* total = acc in
      let* n =
        in_context
          (name ^ "/" ^ cname)
          (check_cpu_trace ~config trace')
      in
      Ok (total + n))
    (Ok 0) configs

let check_prepared ?(configs = configs) ?variant_configs p =
  (* Baseline crosses the whole sweep; variants default to a cut-down
     sweep (first + last entry) to keep fuzz loops fast, unless the
     caller asks for more. *)
  let variant_configs =
    match variant_configs with
    | Some cs -> cs
    | None -> (
      match configs with
      | [] -> []
      | [ c ] -> [ c ]
      | c :: rest -> [ c; List.nth rest (List.length rest - 1) ])
  in
  let* () =
    in_context "walk" (check_walk p.program ~seed:p.seed ~instrs:p.instrs)
  in
  let* _ =
    in_context "baseline" (check_trace p.program ~seed:p.seed ~path:p.path)
  in
  let* _ =
    in_context "baseline/pack"
      (check_pack p.program ~seed:p.seed ~path:p.path)
  in
  let* base_events =
    List.fold_left
      (fun acc (cname, config) ->
        let* total = acc in
        let* n =
          in_context ("baseline/" ^ cname) (check_cpu_trace ~config p.trace)
        in
        Ok (total + n))
      (Ok 0) configs
  in
  List.fold_left
    (fun acc variant ->
      let* total = acc in
      let* n = check_variant ~configs:variant_configs p variant in
      Ok (total + n))
    (Ok base_events) (transform_variants p)

let check_program ?configs ?variant_configs ?(instrs = 2_000) program ~seed =
  let p = prepare ~instrs program ~seed in
  check_prepared ?configs ?variant_configs p
