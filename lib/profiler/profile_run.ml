module H = Util.Dist.Histogram

type agg = {
  mutable occurrences : int;
  mutable criticality_sum : float;
  site : Critic_db.site; (* occurrences/criticality filled at the end *)
}

(* Cut an IC path into maximal segments that sit inside a single visit
   of a single block: within one visit the stream is contiguous, so the
   seq distance between members must equal their body-index distance.
   Each segment is independently hoistable by the compiler (producers of
   its head may live in earlier blocks; the head stays first). *)
let single_block_segments dfg nodes =
  let event n = (Dfg.node dfg n).Dfg.event in
  let continues prev n =
    let e = event n and ep = event prev in
    e.Prog.Trace.block_id = ep.Prog.Trace.block_id
    && e.Prog.Trace.body_index > ep.Prog.Trace.body_index
    && e.Prog.Trace.seq - ep.Prog.Trace.seq
       = e.Prog.Trace.body_index - ep.Prog.Trace.body_index
  in
  let rec go segments current prev = function
    | [] -> List.rev (List.rev current :: segments)
    | n :: tl ->
      if (event n).Prog.Trace.body_index < 0 then
        go (List.rev current :: segments) [] n tl
      else if current = [] || continues prev n then
        go segments (n :: current) n tl
      else go (List.rev current :: segments) [ n ] n tl
  in
  match
    List.filter (fun n -> (event n).Prog.Trace.body_index >= 0) nodes
  with
  | [] -> []
  | first :: rest ->
    go [] [ first ] first rest |> List.filter (fun s -> List.length s >= 2)

let chain_criticality ?(metric = Metric.Average_fanout) dfg nodes =
  Metric.score metric (List.map (Dfg.fanout dfg) nodes)

(* Fanout at which one instruction is high-fanout (Fig. 1b gaps), and
   the IC enumeration budget per window. *)
let fanout_threshold = 4
let max_paths_per_window = 512

let profile_stream ?(window = 512) ?(threshold = 4.0) ?(max_len = 9)
    ?(fraction = 1.0) ?(metric = Metric.Average_fanout) ~total_events
    (cursor : Prog.Trace.Stream.cursor) : Critic_db.t =
  let n = total_events in
  let limit =
    max 0 (min n (int_of_float (fraction *. float_of_int n)))
  in
  let ic_lengths = H.create () in
  let ic_spreads = H.create () in
  let chain_gaps = H.create () in
  let table : (string, agg) Hashtbl.t = Hashtbl.create 1024 in
  (* The same segment appears in many maximal ICs of one window (paths
     branch at every fanout tree); count each static chain at most once
     per window. *)
  let seen_this_window : (string, unit) Hashtbl.t = Hashtbl.create 256 in
  let record_segment dfg segment =
    let prefix = segment in
    let rec shrink nodes =
      match nodes with
      | [] | [ _ ] -> None
      | _ when chain_criticality ~metric dfg nodes >= threshold -> Some nodes
      | _ -> shrink (List.filteri (fun i _ -> i < List.length nodes - 1) nodes)
    in
    match shrink prefix with
    | None -> ()
    | Some nodes ->
      let events =
        List.map (fun i -> (Dfg.node dfg i).Dfg.event) nodes
      in
      let uids =
        List.map (fun (e : Prog.Trace.event) -> e.instr.uid) events
      in
      let key = String.concat "," (List.map string_of_int uids) in
      if Hashtbl.mem seen_this_window key then ()
      else begin
      Hashtbl.replace seen_this_window key ();
      let crit = chain_criticality ~metric dfg nodes in
      (match Hashtbl.find_opt table key with
      | Some agg ->
        agg.occurrences <- agg.occurrences + 1;
        agg.criticality_sum <- agg.criticality_sum +. crit
      | None ->
        let first = List.hd events in
        let site : Critic_db.site =
          {
            block_id = first.block_id;
            start_index = first.body_index;
            member_indices =
              List.map (fun (e : Prog.Trace.event) -> e.body_index) events;
            uids;
            key =
              String.concat "|"
                (List.map
                   (fun (e : Prog.Trace.event) ->
                     Isa.Instr.structural_key e.instr)
                   events);
            occurrences = 0;
            criticality = 0.0;
            convertible =
              List.for_all
                (fun (e : Prog.Trace.event) ->
                  Isa.Encode.thumb_convertible e.instr)
                events;
          }
        in
        Hashtbl.replace table key
          { occurrences = 1; criticality_sum = crit; site })
      end
  in
  (* Chains longer than [max_len] become several consecutive sites of
     at most [max_len] members each — a chunk's external producers are
     earlier chain members, which precede its hoist point, so every
     chunk remains independently hoistable. *)
  let rec chunk l =
    if List.length l <= max_len then [ l ]
    else
      List.filteri (fun i _ -> i < max_len) l
      :: chunk (List.filteri (fun i _ -> i >= max_len) l)
  in
  let record_candidate dfg nodes =
    List.iter
      (fun seg -> List.iter (record_segment dfg) (chunk seg))
      (single_block_segments dfg nodes)
  in
  (* One window of events lives in a reused buffer; DFG node indices are
     window-relative either way, and events carry their absolute [seq],
     so each window's analysis is identical to slicing a materialized
     trace at the same offsets. *)
  let buf : Prog.Trace.t ref = ref [||] in
  let taken = ref 0 in
  let total_work = ref 0 in
  let take_window () =
    let len = ref 0 in
    let continue = ref true in
    while !continue && !len < window && !taken < limit do
      match Prog.Trace.Stream.next cursor with
      | None -> continue := false
      | Some e ->
        if Array.length !buf = 0 then buf := Array.make (max 1 window) e;
        !buf.(!len) <- e;
        incr len;
        incr taken;
        if Prog.Trace.is_work e then incr total_work
    done;
    !len
  in
  let continue = ref true in
  while !continue do
    let len = take_window () in
    if len = 0 then continue := false
    else if len >= 8 then begin
      Hashtbl.reset seen_this_window;
      let dfg = Dfg.of_events ~lo:0 ~hi:len !buf in
      let ics =
        Dfg.Ic.enumerate ~max_paths:max_paths_per_window ~max_len:window dfg
      in
      List.iter
        (fun (ic : Dfg.Ic.t) ->
          H.add ic_lengths (Dfg.Ic.length ic);
          H.add ic_spreads (Dfg.Ic.spread dfg ic);
          record_candidate dfg ic.nodes)
        ics;
      let gaps = Dfg.chain_gaps ~threshold:fanout_threshold dfg in
      List.iter
        (fun (v, c) -> H.addn chain_gaps v c)
        (H.bins gaps)
    end
  done;
  (* Greedy per-block selection of non-overlapping sites, best dynamic
     coverage first. *)
  let finished =
    Hashtbl.fold
      (fun _ agg acc ->
        {
          agg.site with
          occurrences = agg.occurrences;
          criticality = agg.criticality_sum /. float_of_int agg.occurrences;
        }
        :: acc)
      table []
  in
  let score s =
    s.Critic_db.occurrences * Critic_db.site_length s
  in
  let sorted = List.sort (fun a b -> compare (score b) (score a)) finished in
  (* Disjoint *index ranges* per block (not merely disjoint indices):
     the compiler pass applies sites highest-range-first and relies on
     ranges never interleaving. *)
  let chosen : (int, (int * int) list) Hashtbl.t = Hashtbl.create 64 in
  let sites =
    List.filter
      (fun (s : Critic_db.site) ->
        let lo = List.hd s.member_indices in
        let hi = List.fold_left max lo s.member_indices in
        let used =
          Option.value ~default:[] (Hashtbl.find_opt chosen s.block_id)
        in
        let overlap =
          List.exists (fun (rlo, rhi) -> lo <= rhi && rlo <= hi) used
        in
        if overlap then false
        else begin
          Hashtbl.replace chosen s.block_id ((lo, hi) :: used);
          true
        end)
      sorted
  in
  { Critic_db.sites; total_work = !total_work; ic_lengths; ic_spreads;
    chain_gaps }

let profile ?window ?threshold ?max_len ?fraction ?metric
    (trace : Prog.Trace.t) : Critic_db.t =
  profile_stream ?window ?threshold ?max_len ?fraction ?metric
    ~total_events:(Array.length trace)
    (Prog.Trace.Stream.of_trace trace)
