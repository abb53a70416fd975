module I = Isa.Instr

type report = {
  runs_converted : int;
  instrs_converted : int;
  cdp_inserted : int;
}

let zero_report = { runs_converted = 0; instrs_converted = 0; cdp_inserted = 0 }

let add_report a b =
  {
    runs_converted = a.runs_converted + b.runs_converted;
    instrs_converted = a.instrs_converted + b.instrs_converted;
    cdp_inserted = a.cdp_inserted + b.cdp_inserted;
  }

let cdp_span = 9

let convert_run ~fresh_uid run =
  if run = [] then invalid_arg "Thumb.convert_run: empty run";
  List.iter
    (fun i ->
      if not (Isa.Encode.thumb_convertible i) then
        invalid_arg "Thumb.convert_run: non-convertible instruction")
    run;
  let rec chunks acc = function
    | [] -> List.rev acc
    | l ->
      let n = min cdp_span (List.length l) in
      let head = List.filteri (fun i _ -> i < n) l in
      let tail = List.filteri (fun i _ -> i >= n) l in
      chunks (head :: acc) tail
  in
  let groups = chunks [] run in
  let out =
    List.concat_map
      (fun group ->
        I.cdp ~uid:(fresh_uid ()) ~following:(List.length group)
        :: List.map (I.with_encoding I.Thumb16) group)
      groups
  in
  ( out,
    {
      runs_converted = 1;
      instrs_converted = List.length run;
      cdp_inserted = List.length groups;
    } )

(* Split a block body into maximal runs of eligible instructions and
   convert the runs of at least [min_run]. *)
let convert_block ~fresh_uid ~min_run (block : Prog.Block.t) =
  let eligible (i : I.t) =
    i.encoding = I.Arm32
    && i.opcode <> Isa.Opcode.Cdp_switch
    && Isa.Encode.thumb_convertible i
  in
  let out = ref [] in
  let report = ref zero_report in
  let flush_run run =
    match run with
    | [] -> ()
    | run when List.length run >= min_run ->
      let converted, r = convert_run ~fresh_uid (List.rev run) in
      report := add_report !report r;
      List.iter (fun i -> out := i :: !out) converted
    | run -> List.iter (fun i -> out := i :: !out) (List.rev run)
  in
  let run = ref [] in
  Array.iter
    (fun ins ->
      if eligible ins then run := ins :: !run
      else begin
        flush_run !run;
        run := [];
        out := ins :: !out
      end)
    block.body;
  flush_run !run;
  (Prog.Block.with_body (Array.of_list (List.rev !out)) block, !report)

let run_pass ~min_run program =
  let next_uid = ref (Prog.Program.max_uid program + 1) in
  let fresh_uid () =
    let u = !next_uid in
    incr next_uid;
    u
  in
  let total = ref zero_report in
  let program =
    Prog.Program.map_blocks
      (fun b ->
        let b', r = convert_block ~fresh_uid ~min_run b in
        total := add_report !total r;
        b')
      program
  in
  (program, !total)

let opp16 program = run_pass ~min_run:3 program
let compress program = run_pass ~min_run:2 program
