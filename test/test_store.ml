(* Prepared-context store: key invalidation, corruption fallback,
   crash-orphan sweep, every-IO crash points, LRU resident-context
   bound, warm-harness reuse, and the allocation-free simulator-core
   contract the store's perf work rests on. *)

let fresh_dir () =
  let path = Filename.temp_file "critics-store" "" in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let with_store f = with_dir (fun dir -> f dir (Store.open_dir dir))

let app name = Option.get (Workload.Apps.find name)

(* ------------------------------------------------------------------ *)
(* Keys                                                               *)

let test_key_deterministic () =
  let k1 = Store.key ~kind:"blob" [ "a"; "bc" ]
  and k2 = Store.key ~kind:"blob" [ "a"; "bc" ] in
  Alcotest.(check string)
    "same inputs, same digest" (Store.key_digest k1) (Store.key_digest k2)

let test_key_framing () =
  (* length framing: part boundaries must not alias *)
  let k1 = Store.key ~kind:"blob" [ "ab"; "c" ]
  and k2 = Store.key ~kind:"blob" [ "a"; "bc" ]
  and k3 = Store.key ~kind:"blob" [ "abc" ] in
  let d1 = Store.key_digest k1
  and d2 = Store.key_digest k2
  and d3 = Store.key_digest k3 in
  Alcotest.(check bool) "ab|c <> a|bc" true (d1 <> d2);
  Alcotest.(check bool) "ab|c <> abc" true (d1 <> d3)

let test_key_kind_and_code_version () =
  let d kind cv = Store.key_digest (Store.key ~code_version:cv ~kind [ "x" ]) in
  Alcotest.(check bool) "kind changes digest" true (d "a" "v1" <> d "b" "v1");
  Alcotest.(check bool)
    "code version changes digest" true
    (d "a" "v1" <> d "a" "v2")

let test_context_key_sensitivity () =
  let acrobat = app "Acrobat" in
  let base = Store.key_digest (Critics.Run.context_key acrobat) in
  let again = Store.key_digest (Critics.Run.context_key acrobat) in
  Alcotest.(check string) "stable across calls" base again;
  (* every preparation parameter and the profile bytes must invalidate *)
  let changed =
    [
      ( "profile bytes",
        Store.key_digest
          (Critics.Run.context_key { acrobat with seed = acrobat.seed + 1 }) );
      ("instrs", Store.key_digest (Critics.Run.context_key ~instrs:7 acrobat));
      ("sample", Store.key_digest (Critics.Run.context_key ~sample:3 acrobat));
      ( "profile_window",
        Store.key_digest (Critics.Run.context_key ~profile_window:64 acrobat) );
      ( "threshold",
        Store.key_digest (Critics.Run.context_key ~threshold:9.5 acrobat) );
      ( "profile_fraction",
        Store.key_digest (Critics.Run.context_key ~profile_fraction:0.5 acrobat)
      );
    ]
  in
  List.iter
    (fun (what, d) ->
      Alcotest.(check bool) (what ^ " invalidates") true (d <> base))
    changed

(* The harness's job key, over a random machine configuration reached
   from Table I by a few field edits.  Every edit changes exactly one
   field (nested memory and DRAM fields included) to a different value;
   the property is that one edit always changes the key, while a
   structurally equal copy with different physical sharing never does. *)

let job_key ?config ?variant scheme =
  Experiments.Harness.job_key
    (Experiments.Harness.job ?config ?variant (app "Acrobat") scheme)

let next xs x =
  let rec go = function
    | y :: (z :: _ as rest) -> if y = x then z else go rest
    | _ -> List.hd xs
  in
  go xs

let config_edits : (int -> Pipeline.Config.t -> Pipeline.Config.t) array =
  let mem f d (c : Pipeline.Config.t) = { c with mem = f d c.mem } in
  let dram f =
    mem (fun d (m : Mem.Hierarchy.config) -> { m with dram = f d m.dram })
  in
  [|
    (fun d c -> { c with width = c.width + d });
    (fun d c -> { c with fetch_bytes = c.fetch_bytes + d });
    (fun d c -> { c with fetch_queue = c.fetch_queue + d });
    (fun d c -> { c with decode_queue = c.decode_queue + d });
    (fun d c -> { c with rob = c.rob + d });
    (fun d c -> { c with iq = c.iq + d });
    (fun d c -> { c with int_alus = c.int_alus + d });
    (fun d c -> { c with mul_units = c.mul_units + d });
    (fun d c -> { c with mem_ports = c.mem_ports + d });
    (fun d c -> { c with fp_units = c.fp_units + d });
    (fun d c -> { c with branch_units = c.branch_units + d });
    (fun d c -> { c with mispredict_penalty = c.mispredict_penalty + d });
    (fun d c -> { c with cdp_decode_penalty = c.cdp_decode_penalty + d });
    (fun _ c ->
      {
        c with
        bpu =
          next
            [ Bpu.Predictor.default_kind; Bpu.Predictor.Static_taken;
              Bpu.Predictor.Perfect ]
            c.bpu;
      });
    (fun d c ->
      match c.bpu with
      | Bpu.Predictor.Two_level { entries; history_bits } ->
        {
          c with
          bpu =
            Bpu.Predictor.Two_level
              { entries; history_bits = history_bits + d };
        }
      | _ -> { c with bpu = Bpu.Predictor.default_kind });
    (fun _ c ->
      {
        c with
        issue_policy =
          next [ Pipeline.Config.Oldest_first; Pipeline.Config.Critical_first ]
            c.issue_policy;
      });
    (fun _ c ->
      { c with critical_load_prefetch = not c.critical_load_prefetch });
    (fun _ c -> { c with efetch = not c.efetch });
    (fun _ c -> { c with wrong_path_fetch = not c.wrong_path_fetch });
    (fun _ c -> { c with byte_fetch = not c.byte_fetch });
    (fun d c ->
      { c with fanout_critical_threshold = c.fanout_critical_threshold + d });
    mem (fun d m -> { m with line_bytes = m.line_bytes + d });
    mem (fun d m -> { m with l1i_size = m.l1i_size + d });
    mem (fun d m -> { m with l1i_assoc = m.l1i_assoc + d });
    mem (fun d m -> { m with l1i_hit = m.l1i_hit + d });
    mem (fun d m -> { m with l1d_size = m.l1d_size + d });
    mem (fun d m -> { m with l1d_assoc = m.l1d_assoc + d });
    mem (fun d m -> { m with l1d_hit = m.l1d_hit + d });
    mem (fun d m -> { m with l2_size = m.l2_size + d });
    mem (fun d m -> { m with l2_assoc = m.l2_assoc + d });
    mem (fun d m -> { m with l2_hit = m.l2_hit + d });
    mem (fun _ m -> { m with l2_prefetcher = not m.l2_prefetcher });
    mem (fun _ m ->
        { m with l1i_policy = next Mem.Replacement.all_kinds m.l1i_policy });
    mem (fun _ m ->
        {
          m with
          l1i_prefetch =
            next
              [ Mem.Hierarchy.Ip_none; Mem.Hierarchy.Ip_next_line;
                Mem.Hierarchy.Ip_fetch_directed ]
              m.l1i_prefetch;
        });
    mem (fun _ m -> { m with l1i_opportunity = not m.l1i_opportunity });
    dram (fun d r -> { r with channels = r.channels + d });
    dram (fun d r -> { r with ranks_per_channel = r.ranks_per_channel + d });
    dram (fun d r -> { r with banks_per_rank = r.banks_per_rank + d });
    dram (fun d r -> { r with row_bytes = r.row_bytes + d });
    dram (fun d r -> { r with tcl_cycles = r.tcl_cycles + d });
    dram (fun d r -> { r with trp_cycles = r.trp_cycles + d });
    dram (fun d r -> { r with trcd_cycles = r.trcd_cycles + d });
    dram (fun d r -> { r with burst_cycles = r.burst_cycles + d });
  |]

(* A structurally equal value whose shared sub-values are duplicated. *)
let unshared v =
  Marshal.from_string (Marshal.to_string v [ Marshal.No_sharing ]) 0

let edit =
  QCheck.(pair (int_bound (Array.length config_edits - 1)) (int_range 1 64))

let apply_edit c (i, d) = config_edits.(i) d c

let prop_config_bytes_invalidate =
  QCheck.Test.make ~name:"config bytes invalidate" ~count:300
    QCheck.(pair (list_of_size Gen.(int_range 0 4) edit) edit)
    (fun (edits, e) ->
      let c = List.fold_left apply_edit Pipeline.Config.table_i edits in
      let key config = job_key ~config Critics.Scheme.Critic in
      key c <> key (apply_edit c e) && key c = key (unshared c))

let variant_gen =
  QCheck.make
    QCheck.Gen.(
      oneof
        [
          map (fun n -> Critics.Run.Exact_length n) (int_range 2 9);
          map (fun f -> Critics.Run.Fraction f) (float_range 0.01 1.0);
          map (fun t -> Critics.Run.Threshold t) (float_range 1.0 10.0);
          map (fun m -> Critics.Run.Metric m) (oneofl Profiler.Metric.all);
        ])

let prop_variant_invalidates =
  QCheck.Test.make ~name:"variant invalidates" ~count:200 variant_gen
    (fun v ->
      let edited =
        match v with
        | Critics.Run.Exact_length n -> Critics.Run.Exact_length (n + 1)
        | Critics.Run.Fraction f -> Critics.Run.Fraction (f /. 2.0)
        | Critics.Run.Threshold t -> Critics.Run.Threshold (t +. 1.0)
        | Critics.Run.Metric m ->
          Critics.Run.Metric (next Profiler.Metric.all m)
      in
      let key variant = job_key ~variant Critics.Scheme.Critic in
      key v <> key edited
      && key v <> job_key Critics.Scheme.Critic
      && key v = key (unshared v))

(* ------------------------------------------------------------------ *)
(* Entries                                                            *)

let test_roundtrip_bytes () =
  with_store (fun _dir st ->
      let k = Store.key ~kind:"blob" [ "payload-1" ] in
      let payload = String.init 4096 (fun i -> Char.chr (i * 31 land 0xff)) in
      Alcotest.(check (option string)) "cold miss" None (Store.find st k);
      Store.add st k payload;
      Alcotest.(check (option string))
        "hit is byte-identical" (Some payload) (Store.find st k);
      let s = Store.stats st in
      Alcotest.(check int) "one miss" 1 s.misses;
      Alcotest.(check int) "one hit" 1 s.hits;
      Alcotest.(check int) "one write" 1 s.writes;
      Alcotest.(check int) "no corruption" 0 s.corrupt)

let test_fuzzed_program_roundtrip () =
  (* round-trip property over fuzzed programs: store-served bytes
     rebuild a structurally identical program for arbitrary genomes *)
  with_store (fun _dir st ->
      for seed = 0 to 24 do
        let p = Workload.Fuzz.program_of_seed seed in
        let bytes = Marshal.to_string p [] in
        let k = Store.key ~kind:"program" [ "fuzz"; string_of_int seed ] in
        Store.add st k bytes;
        match Store.find st k with
        | None -> Alcotest.failf "seed %d: stored program missing" seed
        | Some b ->
          let p' : Prog.Program.t = Marshal.from_string b 0 in
          Alcotest.(check string)
            (Printf.sprintf "seed %d rebuilds identically" seed)
            (Digest.string bytes)
            (Digest.string (Marshal.to_string p' []))
      done)

let test_corruption_falls_back () =
  with_store (fun dir st ->
      let k = Store.key ~kind:"blob" [ "to-corrupt" ] in
      Store.add st k "precious bytes";
      let path = Filename.concat (Filename.concat dir "blob") (Store.key_digest k) in
      Alcotest.(check bool) "entry on disk" true (Sys.file_exists path);
      (* flip a payload byte in place *)
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      ignore (Unix.lseek fd (-3) Unix.SEEK_END);
      ignore (Unix.write_substring fd "X" 0 1);
      Unix.close fd;
      Alcotest.(check (option string))
        "corrupt entry reads as miss" None (Store.find st k);
      Alcotest.(check int) "counted as corrupt" 1 (Store.stats st).corrupt;
      Alcotest.(check bool) "corrupt entry removed" false (Sys.file_exists path);
      (* ...but not destroyed: it moved to the morgue for post-mortems *)
      Alcotest.(check int) "quarantined for post-mortem" 1
        (List.length (Store.quarantined st));
      (* recompute-and-add recovers *)
      Store.add st k "precious bytes";
      Alcotest.(check (option string))
        "recovers after re-add" (Some "precious bytes") (Store.find st k))

let corrupt_in_place dir k =
  let path =
    Filename.concat (Filename.concat dir "blob") (Store.key_digest k)
  in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
  ignore (Unix.lseek fd (-2) Unix.SEEK_END);
  ignore (Unix.write_substring fd "X" 0 1);
  Unix.close fd

let test_quarantine_bounded_and_invisible () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let st = Store.open_dir ~quarantine_limit:3 dir in
      (* Corrupt five distinct entries; the morgue must hold only the
         three newest. *)
      for i = 1 to 5 do
        let k = Store.key ~kind:"blob" [ string_of_int i ] in
        Store.add st k "payload payload";
        corrupt_in_place dir k;
        Alcotest.(check (option string))
          "corrupt entry misses" None (Store.find st k)
      done;
      Alcotest.(check int) "morgue bounded at the limit" 3
        (List.length (Store.quarantined st));
      Alcotest.(check int) "five counted corrupt" 5 (Store.stats st).corrupt;
      (* The morgue is invisible to cache accounting and clearing. *)
      Alcotest.(check int) "no visible entries" 0 (Store.entry_count st);
      Alcotest.(check int) "nothing to clear" 0 (Store.clear st);
      Alcotest.(check int) "clear spares the morgue" 3
        (List.length (Store.quarantined st));
      (* A reopened store still sees the quarantined files. *)
      let st2 = Store.open_dir dir in
      Alcotest.(check int) "morgue survives reopen" 3
        (List.length (Store.quarantined st2)))

let test_version_mismatch_misses () =
  with_store (fun _dir st ->
      let k_old = Store.key ~code_version:"build-1" ~kind:"blob" [ "x" ] in
      let k_new = Store.key ~code_version:"build-2" ~kind:"blob" [ "x" ] in
      Store.add st k_old "old artifact";
      Alcotest.(check (option string))
        "new code version misses old entry" None (Store.find st k_new);
      Alcotest.(check (option string))
        "old key still hits" (Some "old artifact") (Store.find st k_old))

let test_clear_and_sizes () =
  with_store (fun _dir st ->
      Store.add st (Store.key ~kind:"a" [ "1" ]) "xx";
      Store.add st (Store.key ~kind:"b" [ "2" ]) "yyyy";
      Alcotest.(check int) "two entries" 2 (Store.entry_count st);
      Alcotest.(check bool) "bytes counted" true (Store.total_bytes st > 6);
      Alcotest.(check int) "clear removes both" 2 (Store.clear st);
      Alcotest.(check int) "empty after clear" 0 (Store.entry_count st))

(* ------------------------------------------------------------------ *)
(* Crash-orphan sweep                                                 *)

let test_store_sweeps_orphans () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let sub = Filename.concat dir "context" in
      Unix.mkdir sub 0o755;
      let plant path =
        let oc = open_out path in
        output_string oc "half-written";
        close_out oc
      in
      let orphan_top = Filename.concat dir "dead.tmp"
      and orphan_sub = Filename.concat sub "dead.tmp"
      and survivor = Filename.concat sub "0123456789abcdef" in
      plant orphan_top;
      plant orphan_sub;
      plant survivor;
      let st = Store.open_dir dir in
      Alcotest.(check bool) "top orphan swept" false (Sys.file_exists orphan_top);
      Alcotest.(check bool) "kind orphan swept" false (Sys.file_exists orphan_sub);
      Alcotest.(check bool) "non-tmp survives" true (Sys.file_exists survivor);
      ignore st)

let test_db_io_sweeps_orphans () =
  let dir = fresh_dir () in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let orphan = Filename.concat dir "profile.db.tmp" in
      let oc = open_out orphan in
      output_string oc "torn write";
      close_out oc;
      Alcotest.(check int) "one orphan swept" 1 (Profiler.Db_io.sweep_tmp dir);
      Alcotest.(check bool) "orphan gone" false (Sys.file_exists orphan);
      Alcotest.(check int) "idempotent" 0 (Profiler.Db_io.sweep_tmp dir))

(* Store.add under the crash-point discipline: an abort at every IO
   index of an install must leave the store either without the entry (a
   plain miss) or with it intact — never with a corrupt visible entry. *)
let test_store_put_crash_points () =
  let k = Store.key ~kind:"chaos" [ "payload" ] in
  let payload = String.concat "/" (List.init 64 string_of_int) in
  (* Learn the op count from a fault-free install. *)
  let total =
    with_dir @@ fun dir ->
    let count = ref 0 in
    let inject ~op:_ =
      incr count;
      Util.Atomic_io.Proceed
    in
    let t = Store.open_dir ~inject dir in
    Store.add t k payload;
    Alcotest.(check bool) "fault-free install lands" true
      (Store.find t k <> None);
    !count
  in
  Alcotest.(check bool) "install has IO ops to abort" true (total > 0);
  for at = 0 to total - 1 do
    with_dir @@ fun dir ->
    let fired = ref false in
    let count = ref 0 in
    let inject ~op:_ =
      let n = !count in
      incr count;
      if n = at && not !fired then begin
        fired := true;
        if at mod 2 = 0 then Util.Atomic_io.Crash else Util.Atomic_io.Torn 5
      end
      else Util.Atomic_io.Proceed
    in
    let t = Store.open_dir ~inject dir in
    (try Store.add t k payload
     with Util.Atomic_io.Injected_crash _ -> ());
    (* The next process: orphan sweep, then lookup. *)
    let t2 = Store.open_dir dir in
    (match Store.find t2 k with
    | Some got ->
      Alcotest.(check string)
        (Printf.sprintf "crash point %d: visible entry is intact" at)
        payload got
    | None -> ());
    Alcotest.(check int)
      (Printf.sprintf "crash point %d: no corrupt visible state" at)
      0 (Store.stats t2).Store.corrupt
  done

(* ------------------------------------------------------------------ *)
(* Prepared-context reuse                                             *)

let small_instrs = 2_000

let ctx_digest (ctx : Critics.Run.app_context) =
  Digest.string
    (Marshal.to_string (ctx.program, ctx.seed, ctx.path, ctx.event_count, ctx.db) [])

let test_prepare_warm_identical () =
  with_store (fun _dir st ->
      let cold = Critics.Run.prepare ~store:st ~instrs:small_instrs (app "Acrobat") in
      Alcotest.(check bool) "cold run wrote" true ((Store.stats st).writes > 0);
      let warm = Critics.Run.prepare ~store:st ~instrs:small_instrs (app "Acrobat") in
      Alcotest.(check bool) "warm run hit" true ((Store.stats st).hits > 0);
      Alcotest.(check string) "same fingerprint" cold.ckey warm.ckey;
      Alcotest.(check string)
        "store-served context bit-identical" (ctx_digest cold) (ctx_digest warm))

let test_harness_warm_stats () =
  with_store (fun _dir st ->
      let stats h =
        Experiments.Harness.stats h (app "Acrobat") Critics.Scheme.Critic
      in
      let h1 = Experiments.Harness.create ~instrs:small_instrs ~jobs:1 ~store:st () in
      let s1 = stats h1 in
      let writes_after_cold = (Store.stats st).writes in
      Alcotest.(check bool) "cold harness wrote" true (writes_after_cold > 0);
      let h2 = Experiments.Harness.create ~instrs:small_instrs ~jobs:1 ~store:st () in
      let s2 = stats h2 in
      Alcotest.(check bool) "warm harness hit" true ((Store.stats st).hits > 0);
      Alcotest.(check int)
        "no new writes on warm run" writes_after_cold (Store.stats st).writes;
      Alcotest.(check string) "bit-identical stats"
        (Digest.string (Marshal.to_string s1 []))
        (Digest.string (Marshal.to_string s2 [])))

(* Fig. 12 and the ablations run through the harness memo and the
   store like every other artifact: their renders are byte-identical
   hermetic, over a cold store and over the warm store, and the warm
   pass is served entirely from the store. *)
let test_sensitivity_renders_across_stores () =
  let apps = [ app "Acrobat" ] in
  let render h =
    Experiments.Fig12.render (Experiments.Fig12.run h)
    ^ Experiments.Ablations.render (Experiments.Ablations.run ~apps h)
  in
  let harness ?store () =
    Experiments.Harness.create ~instrs:small_instrs ~jobs:1 ?store ()
  in
  let hermetic = render (harness ()) in
  with_store (fun _dir st ->
      let cold = render (harness ~store:st ()) in
      let s0 = Store.stats st in
      let warm = render (harness ~store:st ()) in
      let s1 = Store.stats st in
      Alcotest.(check string) "cold store = hermetic" hermetic cold;
      Alcotest.(check string) "warm store = hermetic" hermetic warm;
      Alcotest.(check int) "warm pass misses nothing" s0.misses s1.misses;
      Alcotest.(check int) "warm pass writes nothing" s0.writes s1.writes;
      (* 14 Fig. 12 points per mobile app, 9 re-profiled ablation points *)
      let variant_jobs =
        (14 * List.length (List.assoc "Mobile" Experiments.Harness.suites)) + 9
      in
      Alcotest.(check bool) "warm pass served every variant job" true
        (s1.hits - s0.hits >= variant_jobs))

let test_lru_context_cap () =
  let apps = [ "Acrobat"; "Email"; "Youtube"; "Angrybirds" ] in
  with_store (fun _dir st ->
      let h =
        Experiments.Harness.create ~instrs:small_instrs ~jobs:1 ~store:st
          ~context_cap:2 ()
      in
      let digests =
        List.map (fun n -> ctx_digest (Experiments.Harness.context h (app n))) apps
      in
      Alcotest.(check bool)
        "resident bounded by cap" true
        (Experiments.Harness.resident_contexts h <= 2);
      Alcotest.(check bool)
        "evictions happened" true
        (Experiments.Harness.context_evictions h >= 2);
      (* evicted contexts come back transparently — and identically *)
      List.iter2
        (fun n d ->
          Alcotest.(check string)
            (n ^ " reloads identically") d
            (ctx_digest (Experiments.Harness.context h (app n))))
        apps digests;
      Alcotest.(check bool)
        "still bounded after reloads" true
        (Experiments.Harness.resident_contexts h <= 2))

(* ------------------------------------------------------------------ *)
(* Allocation-free windowed core                                      *)

let test_window_loop_allocation_free () =
  (* The per-cycle loop must be GC-silent: minor allocation for a run is
     a setup constant plus a miss-bounded residue, not O(cycles).  Run
     the same recorded trace at 1x and 4x length — setup is identical,
     so the delta difference is the per-event cost.  The bound (0.5
     words/event) leaves room for the miss-driven Hashtbl bookkeeping
     while failing loudly if any per-cycle allocation returns. *)
  let ctx = Critics.Run.prepare ~instrs:20_000 (app "Acrobat") in
  let trace = Critics.Run.trace_of ctx Critics.Scheme.Baseline in
  let big = Array.concat [ trace; trace; trace; trace ] in
  let cfg = Pipeline.Config.table_i in
  let run tr =
    ignore
      (Pipeline.Cpu.run_stream cfg (fun () -> Prog.Trace.Stream.of_trace tr))
  in
  run trace;
  (* warm code paths *)
  let measure tr =
    let g0 = Gc.minor_words () in
    run tr;
    Gc.minor_words () -. g0
  in
  let d1 = measure trace in
  let d4 = measure big in
  let extra_events = 3 * Array.length trace in
  let per_event = (d4 -. d1) /. float_of_int extra_events in
  if per_event >= 0.5 then
    Alcotest.failf
      "window loop allocates %.3f minor words per event (1x=%.0f 4x=%.0f over \
       %d extra events); the core is no longer allocation-free"
      per_event d1 d4 extra_events

let () =
  Alcotest.run "store"
    [
      ( "keys",
        [
          Alcotest.test_case "deterministic" `Quick test_key_deterministic;
          Alcotest.test_case "length framing" `Quick test_key_framing;
          Alcotest.test_case "kind and code version" `Quick
            test_key_kind_and_code_version;
          Alcotest.test_case "context key sensitivity" `Quick
            test_context_key_sensitivity;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ prop_config_bytes_invalidate; prop_variant_invalidates ] );
      ( "entries",
        [
          Alcotest.test_case "byte-identical roundtrip" `Quick
            test_roundtrip_bytes;
          Alcotest.test_case "fuzzed program roundtrip" `Quick
            test_fuzzed_program_roundtrip;
          Alcotest.test_case "corruption falls back" `Quick
            test_corruption_falls_back;
          Alcotest.test_case "quarantine bounded and invisible" `Quick
            test_quarantine_bounded_and_invisible;
          Alcotest.test_case "version mismatch misses" `Quick
            test_version_mismatch_misses;
          Alcotest.test_case "clear and sizes" `Quick test_clear_and_sizes;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "store sweeps orphans" `Quick
            test_store_sweeps_orphans;
          Alcotest.test_case "db_io sweeps orphans" `Quick
            test_db_io_sweeps_orphans;
          Alcotest.test_case "store put crash points" `Quick
            test_store_put_crash_points;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "prepare warm identical" `Quick
            test_prepare_warm_identical;
          Alcotest.test_case "harness warm stats" `Quick test_harness_warm_stats;
          Alcotest.test_case "sensitivity renders across stores" `Quick
            test_sensitivity_renders_across_stores;
          Alcotest.test_case "lru context cap" `Quick test_lru_context_cap;
        ] );
      ( "alloc",
        [
          Alcotest.test_case "window loop allocation-free" `Quick
            test_window_loop_allocation_free;
        ] );
    ]
