type commit = {
  commit_seq : int;   (* position in the ROB retirement stream *)
  commit_cycle : int;
  event : Prog.Trace.event;
}

(* A slot is the simulator's in-flight record for one dynamic
   instruction.  Slots live in a fixed ring sized by the in-flight
   window of the modeled core (fetch queue + decode queue + ROB): a
   record is (re)initialized when the fetch engine first reaches its
   event and recycled — in place, keeping its grown [dependents]
   array — once a younger instruction wraps around the ring, which can
   only happen after the occupant has retired.  [idx] is the global
   stream position and doubles as the recycling stamp: any stashed
   reference (rename table, checks bookkeeping) compares its recorded
   idx against the record's current one to detect that the slot has
   moved on, which implies the referenced instruction already
   retired. *)
type slot = {
  mutable idx : int;           (* global position in the event stream *)
  mutable ev : Prog.Trace.event;
  mutable fetch_request : int; (* cycle the fetch engine first reached it *)
  mutable stall_i : int;       (* supply-side stall cycles while fetch head *)
  mutable stall_bp : int;      (* backpressure stall cycles while fetch head *)
  mutable fetched : int;
  mutable decoded : int;
  mutable renamed : int;
  mutable issued : int;
  mutable completed : int;
  mutable committed : int;
  mutable waiting_on : int;    (* unresolved producers *)
  mutable ready_time : int;    (* earliest issue cycle *)
  mutable dependents : int array; (* global stream indices; grown geometrically *)
  mutable ndeps : int;
  mutable fanout : int;        (* consumers renamed before our commit *)
  mutable in_iq : bool;
}

type source = unit -> Prog.Trace.Stream.cursor

(* Int-specialized max: the stage accounting below takes several per
   retirement, and the polymorphic Stdlib.max goes through compare_val. *)
let[@inline] imax (a : int) b = if a >= b then a else b

(* Bounded FIFO of stream indices backing the stage queues (fetch
   queue, decode queue, ROB).  Each is capped by its architected
   capacity, so one int array serves the whole run and push/pop are
   GC-silent — unlike [Queue.t], which conses a cell per element. *)
type iring = {
  q : int array;
  mutable hd : int;  (* position of the oldest entry *)
  mutable n : int;   (* population *)
}

let iring_make cap = { q = Array.make (max 1 cap) 0; hd = 0; n = 0 }
let[@inline] iring_is_empty r = r.n = 0
let[@inline] iring_peek r = r.q.(r.hd)

let[@inline] iring_push r v =
  r.q.((r.hd + r.n) mod Array.length r.q) <- v;
  r.n <- r.n + 1

let[@inline] iring_pop r =
  let v = r.q.(r.hd) in
  r.hd <- (r.hd + 1) mod Array.length r.q;
  r.n <- r.n - 1;
  v

type acc = {
  mutable count : int;
  mutable fetch_i : int;
  mutable fetch_rd : int;
  mutable decode : int;
  mutable rename : int;
  mutable issue_wait : int;
  mutable execute : int;
  mutable commit_wait : int;
}

let new_acc () =
  {
    count = 0;
    fetch_i = 0;
    fetch_rd = 0;
    decode = 0;
    rename = 0;
    issue_wait = 0;
    execute = 0;
    commit_wait = 0;
  }

let acc_to_summary a : Stats.stage_summary =
  {
    count = a.count;
    fetch_i = a.fetch_i;
    fetch_rd = a.fetch_rd;
    decode = a.decode;
    rename = a.rename;
    issue_wait = a.issue_wait;
    execute = a.execute;
    commit_wait = a.commit_wait;
  }

let dummy_event : Prog.Trace.event =
  {
    seq = -1;
    pc = 0;
    size = 4;
    instr = Isa.Instr.make ~uid:(-1) ~opcode:Isa.Opcode.Nop ();
    block_id = -1;
    body_index = -1;
    func = -1;
    mem_addr = -1;
    is_cond_branch = false;
    taken = false;
    next_pc = 0;
    fetch_break = false;
  }

let no_itemp : int array = [||]

let run_stream ?(warm = true) ?(checks = false) ?fuel ?on_commit ?probe
    ?(itemp = no_itemp) (cfg : Config.t) (source : source) : Stats.t =
  (match fuel with
  | Some f when f <= 0 -> invalid_arg "Cpu.run_stream: fuel must be positive"
  | _ -> ());
  (* Block-temperature table for the TRRIP i-cache policy: indexed by
     block id, 0 hot .. 3 cold.  Empty = no hints (every lookup yields
     -1, the policies' "unknown"). *)
  let nitemp = Array.length itemp in
  let fresh_slot () =
    {
      idx = -1;
      ev = dummy_event;
      fetch_request = -1;
      stall_i = 0;
      stall_bp = 0;
      fetched = -1;
      decoded = -1;
      renamed = -1;
      issued = -1;
      completed = -1;
      committed = -1;
      waiting_on = 0;
      ready_time = 0;
      dependents = [||];
      ndeps = 0;
      fanout = 0;
      in_iq = false;
    }
  in
  (* Ring capacity: every in-flight slot sits in the fetch queue, the
     decode queue or the ROB, plus the one not-yet-fetched head the
     fetch engine is staring at — so the live *population* is bounded by
     the machine window.  The live index *span* can exceed it: CDP
     markers retire at decode and vacate their slots early, so in
     marker-dense code the distance from oldest live slot to newest pull
     outgrows the population.  When a pull would land on a still-live
     record the ring doubles; the records kept are a contiguous index
     range shorter than the old capacity, so re-placing each at
     [idx mod ncap] never collides.  Capacity converges to the maximal
     span — a machine property, independent of stream length. *)
  let cap = ref (cfg.fetch_queue + cfg.decode_queue + cfg.rob + 8) in
  let ring = ref (Array.init !cap (fun _ -> fresh_slot ())) in
  let slot_at idx = !ring.(idx mod !cap) in
  let grow_ring () =
    let ncap = 2 * !cap in
    let nring = Array.init ncap (fun _ -> fresh_slot ()) in
    Array.iter
      (fun s -> if s.idx >= 0 then nring.(s.idx mod ncap) <- s)
      !ring;
    ring := nring;
    cap := ncap
  in
  let hier = Mem.Hierarchy.create cfg.mem in
  (* Warm the memory hierarchy to steady state: replay the trace's
     footprint through the caches (LRU order, no cost, no stats).  The
     paper samples minutes-old executions, so cold-start misses are not
     part of what any configuration should be charged for. *)
  if warm then
    Prog.Trace.Stream.iter
      (fun (e : Prog.Trace.event) ->
        Mem.Hierarchy.touch_i hier e.pc;
        if e.mem_addr >= 0 then Mem.Hierarchy.touch_d hier e.mem_addr)
      (source ());
  let cursor = source () in
  let bpu = Bpu.Predictor.create cfg.bpu in
  let crit_table =
    Criticality_table.create ~threshold:cfg.fanout_critical_threshold ()
  in
  let efetch = Efetch.create ~line_bytes:cfg.mem.line_bytes () in

  let invariant_fail fmt =
    Printf.ksprintf
      (fun msg -> failwith ("Cpu.run_stream invariant violated: " ^ msg))
      fmt
  in

  (* Absent-slot sentinel: [head], [pending_mispredict] and the rename
     table hold direct slot references, with [no_slot] (compared by
     [==]) standing for "none" so the hot path never wraps a slot in
     [Some]. *)
  let no_slot = fresh_slot () in

  (* Queues between stages: stream indices into the slot ring. *)
  let fetch_q = iring_make cfg.fetch_queue in
  let decode_q = iring_make cfg.decode_queue in
  let rob = iring_make cfg.rob in

  (* Stream head: the next not-yet-fetched instruction, materialized
     into its ring slot the moment the fetch engine first needs it. *)
  let pulled = ref 0 in
  let head = ref no_slot in
  let exhausted = ref false in
  let peek_head () =
    if !head != no_slot then !head
    else if !exhausted then no_slot
    else begin
      let ev = Prog.Trace.Stream.next_ev cursor in
      if ev == Prog.Trace.Stream.end_marker then begin
        exhausted := true;
        no_slot
      end
      else begin
        let idx = !pulled in
        while
          (let s = slot_at idx in
           s.idx >= 0 && s.committed < 0)
        do
          grow_ring ()
        done;
        let s = slot_at idx in
        s.idx <- idx;
        s.ev <- ev;
        s.fetch_request <- -1;
        s.stall_i <- 0;
        s.stall_bp <- 0;
        s.fetched <- -1;
        s.decoded <- -1;
        s.renamed <- -1;
        s.issued <- -1;
        s.completed <- -1;
        s.committed <- -1;
        s.waiting_on <- 0;
        s.ready_time <- 0;
        s.ndeps <- 0;
        s.fanout <- 0;
        s.in_iq <- false;
        incr pulled;
        head := s;
        s
      end
    end
  in
  let advance_head () = head := no_slot in

  (* Issue queue: a flat array in insertion (age) order.  Capacity is
     bounded by cfg.iq (rename stops at that size), so one allocation
     serves the whole run; the backing array is created on first insert
     because [Array.make] needs a live slot as seed. *)
  let iq_cap = max 1 cfg.iq in
  let iq_arr : slot array ref = ref [||] in
  let iq_len = ref 0 in
  let iq_push s =
    if Array.length !iq_arr = 0 then iq_arr := Array.make iq_cap s;
    !iq_arr.(!iq_len) <- s;
    incr iq_len
  in
  (* Dependent edges are stored as global stream indices in growable int
     arrays — no list cons per wake-up edge.  The arrays survive slot
     recycling (only [ndeps] resets), so their footprint is O(window). *)
  let add_dependent producer (s : slot) =
    let nd = producer.ndeps in
    let cap = Array.length producer.dependents in
    if nd = cap then begin
      let grown = Array.make (max 4 (2 * cap)) 0 in
      Array.blit producer.dependents 0 grown 0 nd;
      producer.dependents <- grown
    end;
    producer.dependents.(nd) <- s.idx;
    producer.ndeps <- nd + 1
  in

  (* Completion calendar: a timing wheel of [wsize] buckets of stream
     indices, bucket [c mod wsize] holding the slots that finish at
     cycle [c].  Every completion lands at most a bounded execution
     latency ahead of [now] (the wheel doubles in the DRAM-bound worst
     case), and each bucket is drained exactly at its cycle, so two
     distinct cycles never occupy one bucket together.  Replaces the
     int-keyed hashtable whose per-schedule list cons and bucket churn
     were a minor-allocation source per simulated cycle.  The within-
     cycle wake-up order differs from the hashtable's LIFO lists, which
     is observationally irrelevant: the effects (decrement, max,
     reset) commute. *)
  let wsize = ref 1024 in
  let wheel = ref (Array.make !wsize [||]) in
  let wlen = ref (Array.make !wsize 0) in
  let wcount = ref 0 in
  let bucket_push wheel wlen b idx =
    let arr = wheel.(b) in
    let n = wlen.(b) in
    if n = Array.length arr then begin
      let grown = Array.make (imax 4 (2 * n)) 0 in
      Array.blit arr 0 grown 0 n;
      grown.(n) <- idx;
      wheel.(b) <- grown
    end
    else arr.(n) <- idx;
    wlen.(b) <- n + 1
  in
  let wheel_grow delta =
    let nsize = ref (2 * !wsize) in
    while delta >= !nsize do
      nsize := 2 * !nsize
    done;
    let nwheel = Array.make !nsize [||] in
    let nlen = Array.make !nsize 0 in
    for b = 0 to !wsize - 1 do
      let arr = !wheel.(b) in
      for k = 0 to !wlen.(b) - 1 do
        let idx = arr.(k) in
        bucket_push nwheel nlen ((slot_at idx).completed mod !nsize) idx
      done
    done;
    wheel := nwheel;
    wlen := nlen;
    wsize := !nsize
  in
  let schedule_completion ~now s cycle =
    s.completed <- cycle;
    if cycle - now >= !wsize then wheel_grow (cycle - now);
    bucket_push !wheel !wlen (cycle mod !wsize) s.idx;
    incr wcount
  in

  (* Register rename: last in-flight (or most recent) writer per reg.
     [rename_stamp] records the writer's stream index at write time; a
     mismatch against the record's current [idx] means the slot was
     recycled, which implies the original writer retired long ago — a
     case whose every effect below is a no-op anyway. *)
  let rename_table : slot array = Array.make Isa.Reg.count no_slot in
  let rename_stamp : int array = Array.make Isa.Reg.count (-1) in

  (* Fetch engine state. *)
  let fetch_resume_at = ref 0 in
  let cur_line = ref (-1) in
  let pending_mispredict = ref no_slot in
  let decode_block_until = ref 0 in

  (* Machine-level idle-fetch counters. *)
  let idle_supply = ref 0 in
  let idle_backpressure = ref 0 in
  (* Stall cycles accumulated since the last successful fetch cycle;
     attributed to the instructions of the next fetched group, which are
     the ones that were held at the fetch stage during the stall. *)
  let pending_stall_i = ref 0 in
  let pending_stall_bp = ref 0 in

  (* Functional units. *)
  let div_busy_until = ref 0 in

  (* Fetch-bandwidth counters (maintained in both fetch modes). *)
  let fbytes_total = ref 0 in
  let fgroups = ref 0 in

  (* Retirement counters. *)
  let committed_total = ref 0 in
  let committed_work = ref 0 in
  let thumb_committed = ref 0 in
  let cdp_markers = ref 0 in
  let critical_count = ref 0 in
  let commit_seq = ref 0 in
  (* Invariant-check bookkeeping (tiny when checks are off).  Producers
     are remembered as (slot, stream idx) pairs so the check survives
     the producer retiring and its record being recycled. *)
  let last_committed_idx = ref (-1) in
  let producers : (int, (slot * int) list) Hashtbl.t =
    Hashtbl.create (if checks then 1024 else 1)
  in
  let fetch_live = ref 0 in
  let fetch_active = ref 0 in
  let acc_all = new_acc () in
  let acc_crit = new_acc () in
  let acc_chain = new_acc () in

  let line_mask = lnot (cfg.mem.line_bytes - 1) in
  let line_of pc = pc land line_mask in

  let is_critical s = s.fanout >= cfg.fanout_critical_threshold in

  (* Stage attribution is computed once per retirement (the same
     arithmetic that used to live in [record], hoisted so the telemetry
     probe observes the very numbers the accumulators sum — keeping
     [Stats.t] bit-identical with the probe on or off). *)
  let record acc ~fetch_i ~fetch_rd ~decode ~issue_wait ~execute ~commit_wait
      =
    acc.count <- acc.count + 1;
    acc.fetch_i <- acc.fetch_i + fetch_i;
    acc.fetch_rd <- acc.fetch_rd + fetch_rd;
    acc.decode <- acc.decode + decode;
    acc.rename <- acc.rename + 1;
    acc.issue_wait <- acc.issue_wait + issue_wait;
    acc.execute <- acc.execute + execute;
    acc.commit_wait <- acc.commit_wait + commit_wait
  in

  let retire now (s : slot) =
    s.committed <- now;
    (match on_commit with
    | None -> ()
    | Some f -> f { commit_seq = !commit_seq; commit_cycle = now; event = s.ev });
    incr commit_seq;
    if checks then begin
      if s.idx <= !last_committed_idx then
        invariant_fail "out-of-order retirement: slot %d after slot %d" s.idx
          !last_committed_idx;
      last_committed_idx := s.idx;
      if
        not
          (0 <= s.fetch_request
          && s.fetch_request <= s.fetched
          && s.fetched < s.decoded && s.decoded < s.renamed
          && s.renamed < s.issued && s.issued <= s.completed
          && s.completed <= now)
      then
        invariant_fail
          "non-monotone stage timestamps for slot %d (uid %d): \
           req=%d f=%d d=%d r=%d i=%d x=%d c=%d"
          s.idx s.ev.instr.uid s.fetch_request s.fetched s.decoded s.renamed
          s.issued s.completed now
    end;
    incr committed_total;
    (* Work accounting mirrors Trace.work_count. *)
    let is_work =
      s.ev.instr.opcode <> Isa.Opcode.Cdp_switch
      && (s.ev.instr.uid >= Prog.Trace.control_uid_base
          || not (Isa.Opcode.is_control s.ev.instr.opcode))
    in
    if is_work then incr committed_work;
    if s.ev.instr.encoding = Isa.Instr.Thumb16 then incr thumb_committed;
    Criticality_table.train crit_table ~pc:s.ev.pc ~fanout:s.fanout;
    let fetch_i = s.stall_i in
    let fetch_rd = s.stall_bp + imax 0 (s.decoded - s.fetched - 1) in
    let decode = imax 0 (s.renamed - s.decoded) in
    let issue_wait = imax 0 (s.issued - s.renamed - 1) in
    let execute = imax 0 (s.completed - s.issued) in
    let commit_wait = imax 0 (s.committed - s.completed) in
    let critical = is_critical s in
    record acc_all ~fetch_i ~fetch_rd ~decode ~issue_wait ~execute
      ~commit_wait;
    if critical then begin
      incr critical_count;
      record acc_crit ~fetch_i ~fetch_rd ~decode ~issue_wait ~execute
        ~commit_wait
    end;
    if s.ev.instr.chain <> None then
      record acc_chain ~fetch_i ~fetch_rd ~decode ~issue_wait ~execute
        ~commit_wait;
    match probe with
    | None -> ()
    | Some p ->
      let chain_id, chain_pos, chain_len =
        match s.ev.instr.chain with
        | Some (c : Isa.Instr.chain_tag) -> (c.chain_id, c.pos, c.len)
        | None -> (-1, 0, 0)
      in
      Telemetry.Probe.retire p
        {
          cycle = now;
          critical;
          chain_id;
          chain_pos;
          chain_len;
          dispatch = s.renamed;
          fetch_i;
          fetch_rd;
          decode;
          rename = 1;
          issue_wait;
          execute;
          commit_wait;
        }
  in

  (* ---------------- pipeline stages, one call each per cycle ------- *)

  let do_commit now =
    let budget = ref cfg.width in
    let continue = ref true in
    while !continue && !budget > 0 && not (iring_is_empty rob) do
      let s = slot_at (iring_peek rob) in
      if s.completed >= 0 && s.completed <= now then begin
        ignore (iring_pop rob);
        if s.ev.instr.opcode = Isa.Opcode.Store && s.ev.mem_addr >= 0 then
          ignore (Mem.Hierarchy.dwrite_lat hier ~now ~pc:s.ev.pc s.ev.mem_addr);
        retire now s;
        decr budget
      end
      else continue := false
    done
  in

  let do_completions now =
    let b = now mod !wsize in
    let n = !wlen.(b) in
    if n > 0 then begin
      let arr = !wheel.(b) in
      for k = 0 to n - 1 do
        let s = slot_at arr.(k) in
        let deps = s.dependents in
        for j = 0 to s.ndeps - 1 do
          let dep = slot_at deps.(j) in
          if checks && dep.idx <> deps.(j) then
            invariant_fail
              "dependent slot %d recycled while producer %d in flight"
              deps.(j) s.idx;
          dep.waiting_on <- dep.waiting_on - 1;
          if dep.ready_time < now then dep.ready_time <- now
        done;
        s.ndeps <- 0
      done;
      !wlen.(b) <- 0;
      wcount := !wcount - n
    end
  in

  let unit_available now (op : Isa.Opcode.t) ~alu ~mul ~mem ~fp ~br =
    match Isa.Opcode.unit_kind op with
    | `Int_alu -> !alu < cfg.int_alus
    | `Int_mul ->
      !mul < cfg.mul_units
      && (op <> Isa.Opcode.Div || now >= !div_busy_until)
    | `Mem -> !mem < cfg.mem_ports
    | `Fp -> !fp < cfg.fp_units
    | `Branch -> !br < cfg.branch_units
    | `None -> true
  in

  let consume_unit now (op : Isa.Opcode.t) ~alu ~mul ~mem ~fp ~br =
    (match Isa.Opcode.unit_kind op with
    | `Int_alu -> incr alu
    | `Int_mul ->
      incr mul;
      if op = Isa.Opcode.Div then
        div_busy_until := now + Isa.Opcode.exec_latency Isa.Opcode.Div
    | `Mem -> incr mem
    | `Fp -> incr fp
    | `Branch -> incr br
    | `None -> ())
  in

  let issue_one now (s : slot) =
    if checks then begin
      match Hashtbl.find_opt producers s.idx with
      | None -> ()
      | Some ps ->
        List.iter
          (fun ((p : slot), pidx) ->
            (* A recycled record means the producer retired — and hence
               completed — before this issue; only live records carry
               timestamps worth checking. *)
            if p.idx = pidx && (p.completed < 0 || p.completed > now) then
              invariant_fail
                "slot %d (uid %d) issued at cycle %d before producer slot %d \
                 completed"
                s.idx s.ev.instr.uid now pidx)
          ps;
        Hashtbl.remove producers s.idx
    end;
    s.issued <- now;
    s.in_iq <- false;
    let completion =
      match s.ev.instr.opcode with
      | Isa.Opcode.Load when s.ev.mem_addr >= 0 ->
        now + 1 + Mem.Hierarchy.dread_lat hier ~now ~pc:s.ev.pc s.ev.mem_addr
      | Isa.Opcode.Store -> now + 1
      | op -> now + Isa.Opcode.exec_latency op
    in
    schedule_completion ~now s completion
  in

  (* Issue-stage scratch state, allocated once per run (not per cycle):
     the unit counters, the issue counter, and the per-cycle criticality
     flags for Critical_first (predict is queried exactly once per queue
     entry, in age order, matching the former List.partition). *)
  let alu = ref 0 and mul = ref 0 and mem = ref 0 and fp = ref 0 in
  let br = ref 0 in
  let issued = ref 0 in
  let crit_flags = Array.make iq_cap false in
  let try_issue now (s : slot) =
    if
      !issued < cfg.width && s.in_iq && s.waiting_on = 0
      && now >= s.ready_time
      && unit_available now s.ev.instr.opcode ~alu ~mul ~mem ~fp ~br
    then begin
      consume_unit now s.ev.instr.opcode ~alu ~mul ~mem ~fp ~br;
      issue_one now s;
      incr issued
    end
  in
  let do_issue now =
    if checks then begin
      (* The issue queue must stay within capacity and in age order —
         the select loops below rely on scanning it oldest-first. *)
      if !iq_len > cfg.iq then
        invariant_fail "issue queue over capacity: %d > %d" !iq_len cfg.iq;
      let a = !iq_arr in
      for i = 1 to !iq_len - 1 do
        if a.(i - 1).idx >= a.(i).idx then
          invariant_fail "issue queue not in age order at position %d" i
      done
    end;
    alu := 0;
    mul := 0;
    mem := 0;
    fp := 0;
    br := 0;
    issued := 0;
    let a = !iq_arr in
    let len = !iq_len in
    (match cfg.issue_policy with
    | Config.Oldest_first ->
      for i = 0 to len - 1 do
        try_issue now a.(i)
      done
    | Config.Critical_first ->
      for i = 0 to len - 1 do
        crit_flags.(i) <- Criticality_table.predict crit_table ~pc:a.(i).ev.pc
      done;
      for i = 0 to len - 1 do
        if crit_flags.(i) then try_issue now a.(i)
      done;
      for i = 0 to len - 1 do
        if not crit_flags.(i) then try_issue now a.(i)
      done);
    if !issued > 0 then begin
      (* Compact in place, preserving age order. *)
      let j = ref 0 in
      for i = 0 to len - 1 do
        let s = a.(i) in
        if s.in_iq then begin
          a.(!j) <- s;
          incr j
        end
      done;
      iq_len := !j
    end
  in

  (* Rename scratch: the distinct producers seen for the instruction
     being renamed (at most one per register read — a handful).  A
     reused array instead of a consed list, and the instruction's
     register lists are walked directly instead of through
     [Instr.regs_read]/[regs_written], whose Store/writer cases build a
     fresh list per call. *)
  let seen = ref (Array.make 8 no_slot) in
  let seen_n = ref 0 in
  let note_read now (s : slot) ri =
    let producer = rename_table.(ri) in
    (* [no_slot]: no writer yet.  A stamp mismatch means the record was
       recycled, so the original writer retired — for which every
       branch below is a no-op. *)
    if
      producer != no_slot && producer != s
      && producer.idx = rename_stamp.(ri)
    then begin
      let dup = ref false in
      for k = 0 to !seen_n - 1 do
        if !seen.(k) == producer then dup := true
      done;
      if not !dup then begin
        if !seen_n = Array.length !seen then begin
          let grown = Array.make (2 * !seen_n) no_slot in
          Array.blit !seen 0 grown 0 !seen_n;
          seen := grown
        end;
        !seen.(!seen_n) <- producer;
        incr seen_n;
        if producer.committed < 0 then producer.fanout <- producer.fanout + 1;
        if producer.completed < 0 then begin
          (* completion time unknown: wait for wake-up *)
          add_dependent producer s;
          s.waiting_on <- s.waiting_on + 1
        end
        else if producer.completed > now then begin
          if producer.completed > s.ready_time then
            s.ready_time <- producer.completed
        end
      end
    end
  in
  let rec note_reads now s = function
    | [] -> ()
    | r :: tl ->
      note_read now s (Isa.Reg.index r);
      note_reads now s tl
  in

  let do_rename now =
    let budget = ref cfg.width in
    let continue = ref true in
    while
      !continue && !budget > 0
      && (not (iring_is_empty decode_q))
      && rob.n < cfg.rob
      && !iq_len < cfg.iq
    do
      let s = slot_at (iring_peek decode_q) in
      if s.decoded >= 0 && s.decoded < now then begin
        ignore (iring_pop decode_q);
        s.renamed <- now;
        s.ready_time <- now + 1;
        seen_n := 0;
        note_reads now s s.ev.instr.srcs;
        (match s.ev.instr.opcode with
        | Isa.Opcode.Store ->
          (* A store also reads its data "dst" (cf. Instr.regs_read). *)
          (match s.ev.instr.dst with
          | Some r -> note_read now s (Isa.Reg.index r)
          | None -> ())
        | _ -> ());
        if checks && !seen_n > 0 then begin
          let ps = ref [] in
          for k = !seen_n - 1 downto 0 do
            let p = !seen.(k) in
            ps := (p, p.idx) :: !ps
          done;
          Hashtbl.replace producers s.idx !ps
        end;
        (match s.ev.instr.opcode with
        | Isa.Opcode.Store | Isa.Opcode.Branch -> ()
        | _ -> (
          match s.ev.instr.dst with
          | Some r ->
            let ri = Isa.Reg.index r in
            rename_table.(ri) <- s;
            rename_stamp.(ri) <- s.idx
          | None -> ()));
        iring_push rob s.idx;
        iq_push s;
        s.in_iq <- true;
        decr budget
      end
      else continue := false
    done
  in

  let do_decode now =
    if now >= !decode_block_until then begin
      let budget = ref cfg.width in
      let continue = ref true in
      while
        !continue && !budget > 0
        && (not (iring_is_empty fetch_q))
        && decode_q.n < cfg.decode_queue
      do
        let s = slot_at (iring_peek fetch_q) in
        if s.fetched >= 0 && s.fetched < now then begin
          ignore (iring_pop fetch_q);
          s.decoded <- now;
          decr budget;
          if s.ev.instr.opcode = Isa.Opcode.Cdp_switch then begin
            (* The CDP marker retires at decode: it informs the decoder
               of the format switch.  It always consumes a decode slot;
               the paper's conservative one extra decode-stage cycle is
               the default penalty, ending this decode cycle at the
               marker.  A penalty of 0 models free switching (used by
               the CDP-cost ablation). *)
            if cfg.cdp_decode_penalty > 0 then begin
              decode_block_until := now + cfg.cdp_decode_penalty - 1;
              continue := false
            end;
            s.renamed <- now;
            s.issued <- now;
            s.completed <- now;
            s.committed <- now;
            incr cdp_markers;
            incr committed_total;
            match probe with
            | Some p ->
              Telemetry.Probe.cdp_marker p ~cycle:now
                ~penalty:cfg.cdp_decode_penalty
            | None -> ()
          end
          else iring_push decode_q s.idx
        end
        else continue := false
      done
    end
  in

  (* Fetch-stage scratch refs, allocated once per run. *)
  let bytes = ref 0 in
  let new_line_accessed = ref false in
  let fetched_any = ref false in
  let blocked_bp = ref false in
  let stop = ref false in
  let do_fetch now =
    let first = peek_head () in
    if first != no_slot then begin
      if checks then incr fetch_live;
      if first.fetch_request < 0 then first.fetch_request <- now;
      (* Redirect pending: wait for the mispredicted branch to resolve. *)
      let blocked_redirect =
        let b = !pending_mispredict in
        if b == no_slot then false
        else if
          b.completed >= 0 && now >= b.completed + cfg.mispredict_penalty
        then begin
          pending_mispredict := no_slot;
          cur_line := -1;
          false
        end
        else true
      in
      if blocked_redirect || now < !fetch_resume_at then begin
        (* Wrong-path modelling: while waiting on an unresolved branch
           the front end keeps streaming sequential lines from the
           not-taken path through the i-cache — pollution and pointless
           energy, occasionally useful warming, exactly as on real
           hardware.  The wrong-path instructions themselves are not
           simulated (their results are squashed). *)
        if blocked_redirect && cfg.wrong_path_fetch then begin
          let b = !pending_mispredict in
          if b != no_slot then begin
            let line = cfg.mem.line_bytes in
            let ahead =
              let d = now - b.fetched in
              if d <= 0 then 0 else if d >= 8 then 8 else d
            in
            let wrong_pc = b.ev.pc + b.ev.size + (line * ahead) in
            ignore (Mem.Hierarchy.ifetch_lat hier ~now wrong_pc)
          end
        end;
        incr pending_stall_i;
        incr idle_supply
      end
      else begin
        (* Group budget: a flat [fetch_bytes] allowance, regardless of
           alignment — the behaviour the golden digests pin. *)
        bytes := cfg.fetch_bytes;
        new_line_accessed := false;
        fetched_any := false;
        blocked_bp := false;
        stop := false;
        while not !stop do
          let s = peek_head () in
          if s == no_slot then stop := true
          else begin
            if s.fetch_request < 0 then s.fetch_request <- now;
            if fetch_q.n >= cfg.fetch_queue then begin
              blocked_bp := true;
              stop := true
            end
            else begin
              let line = line_of s.ev.pc in
              if line <> !cur_line && !new_line_accessed then
                (* second new line in one cycle: wait for next cycle *)
                stop := true
              else begin
                if line <> !cur_line then begin
                  let hint =
                    let b = s.ev.block_id in
                    if b >= 0 && b < nitemp then itemp.(b) else -1
                  in
                  let lat =
                    Mem.Hierarchy.ifetch_lat_hinted hier ~now ~hint s.ev.pc
                  in
                  new_line_accessed := true;
                  cur_line := line;
                  if lat > cfg.mem.l1i_hit then begin
                    fetch_resume_at := now + lat - cfg.mem.l1i_hit;
                    stop := true
                  end
                end;
                if (not !stop) && !bytes < s.ev.size then stop := true;
                if not !stop then begin
                  bytes := !bytes - s.ev.size;
                  fbytes_total := !fbytes_total + s.ev.size;
                  s.fetched <- now;
                  s.stall_i <- s.stall_i + !pending_stall_i;
                  s.stall_bp <- s.stall_bp + !pending_stall_bp;
                  iring_push fetch_q s.idx;
                  fetched_any := true;
                  advance_head ();
                  (* Optimization hooks that observe the fetch stream. *)
                  (match s.ev.instr.opcode with
                  | Isa.Opcode.Call when cfg.efetch ->
                    List.iter
                      (fun addr -> Mem.Hierarchy.prefetch_i hier ~now addr)
                      (Efetch.on_call efetch ~target:s.ev.next_pc)
                  | Isa.Opcode.Load
                    when cfg.critical_load_prefetch && s.ev.mem_addr >= 0
                         && Criticality_table.predict crit_table ~pc:s.ev.pc
                    ->
                    Mem.Hierarchy.prefetch_d hier ~now ~pc:s.ev.pc
                      s.ev.mem_addr
                  | _ -> ());
                  (* Control flow: mispredicts block fetch; correct taken
                     transfers end the fetch group. *)
                  if s.ev.is_cond_branch then begin
                    let correct =
                      Bpu.Predictor.predict_and_update bpu ~pc:s.ev.pc
                        ~taken:s.ev.taken
                    in
                    if not correct then begin
                      pending_mispredict := s;
                      stop := true
                    end
                    else if s.ev.taken then stop := true
                  end
                  else if s.ev.fetch_break then stop := true
                end
              end
            end
          end
        done;
        if !fetched_any then begin
          incr fgroups;
          if checks then incr fetch_active;
          pending_stall_i := 0;
          pending_stall_bp := 0
        end
        else if !blocked_bp then begin
          incr pending_stall_bp;
          incr idle_backpressure
        end
        else begin
          incr pending_stall_i;
          incr idle_supply
        end
      end
    end
  in

  (* ------------------------------ main loop ------------------------ *)
  (* Prime the head so an empty stream finishes in zero cycles, exactly
     as the materialized path always has. *)
  ignore (peek_head ());
  let now = ref 0 in
  let finished () =
    !exhausted
    && !head == no_slot
    && iring_is_empty fetch_q && iring_is_empty decode_q
    && iring_is_empty rob
  in
  (* Cooperative deadline: the fuel budget bounds simulated cycles, so a
     runaway or stalled job aborts deterministically at the same cycle
     on every run. *)
  let fuel_limit = match fuel with Some f -> f | None -> max_int in
  while not (finished ()) do
    if !now >= fuel_limit then begin
      (match probe with
      | Some p ->
        Telemetry.Probe.fault p ~cycle:!now ~kind:"fuel_exhausted";
        Telemetry.Probe.finish p ~cycles:!now
      | None -> ());
      Util.Err.failf Timeout
        "simulation fuel exhausted: %d cycles simulated, %d events pulled, \
         %d committed"
        !now !pulled !committed_total
    end;
    if !now > (!pulled * 300) + 1_000_000 then
      failwith "Cpu.run_stream: deadlock (cycle guard exceeded)";
    do_commit !now;
    do_completions !now;
    do_issue !now;
    do_rename !now;
    do_decode !now;
    do_fetch !now;
    incr now
  done;

  let n = !pulled in
  if checks then begin
    (* End-of-run accounting identities. *)
    if !committed_total <> n then
      invariant_fail "committed %d of %d trace events" !committed_total n;
    if !iq_len <> 0 then
      invariant_fail "issue queue not drained (%d entries left)" !iq_len;
    if !wcount <> 0 then
      invariant_fail "completion calendar not drained (%d entries pending)"
        !wcount;
    if Hashtbl.length producers <> 0 then
      invariant_fail "producer bookkeeping not drained (%d entries)"
        (Hashtbl.length producers);
    if acc_all.count <> !committed_total - !cdp_markers then
      invariant_fail "stage accounting: %d recorded <> %d committed - %d markers"
        acc_all.count !committed_total !cdp_markers;
    (* The Fig. 3 fetch split: StallForI + StallForR/D + Active must
       cover every cycle the fetch engine was live. *)
    if !fetch_live <> !fetch_active + !idle_supply + !idle_backpressure then
      invariant_fail
        "fetch accounting: %d live cycles <> %d active + %d supply-stall + \
         %d backpressure-stall"
        !fetch_live !fetch_active !idle_supply !idle_backpressure;
    (* Telemetry accounting contract: the probe's running totals must
       reproduce the stage accumulators field-for-field. *)
    match probe with
    | None -> ()
    | Some p ->
      let check_pop name pop (a : acc) =
        let t : Telemetry.Probe.stage_totals = Telemetry.Probe.totals p pop in
        if
          t.count <> a.count || t.fetch_i <> a.fetch_i
          || t.fetch_rd <> a.fetch_rd || t.decode <> a.decode
          || t.rename <> a.rename || t.issue_wait <> a.issue_wait
          || t.execute <> a.execute || t.commit_wait <> a.commit_wait
        then
          invariant_fail
            "telemetry totals diverge from stage accounting for the %s \
             population (probe count %d vs %d)"
            name t.count a.count
      in
      check_pop "all" Telemetry.Probe.All acc_all;
      check_pop "critical" Telemetry.Probe.Critical acc_crit;
      check_pop "chain" Telemetry.Probe.Chain acc_chain
  end;
  (match probe with
  | Some p -> Telemetry.Probe.finish p ~cycles:!now
  | None -> ());

  {
    Stats.cycles = !now;
    committed_total = !committed_total;
    committed_work = !committed_work;
    thumb_committed = !thumb_committed;
    cdp_markers = !cdp_markers;
    critical_count = !critical_count;
    fetch_idle_supply = !idle_supply;
    fetch_idle_backpressure = !idle_backpressure;
    stage_all = acc_to_summary acc_all;
    stage_critical = acc_to_summary acc_crit;
    stage_chain = acc_to_summary acc_chain;
    bpu = Bpu.Predictor.stats bpu;
    l1i = Mem.Hierarchy.l1i_stats hier;
    l1d = Mem.Hierarchy.l1d_stats hier;
    l2 = Mem.Hierarchy.l2_stats hier;
    dram = Mem.Hierarchy.dram_stats hier;
    efetch_predictions = Efetch.predictions efetch;
    efetch_correct = Efetch.correct efetch;
    fetch_bytes = !fbytes_total;
    fetch_groups = !fgroups;
    iopp_misses = Mem.Hierarchy.iopp_misses hier;
    iopp_predictable = Mem.Hierarchy.iopp_predictable hier;
  }
