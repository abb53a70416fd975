(* Unit and property tests for the Util library. *)

module Rng = Util.Rng
module Stats = Util.Stats
module Dist = Util.Dist

let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 1e-9)

(* ------------------------------- Rng ------------------------------ *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int64 "same stream" (Rng.bits64 a) (Rng.bits64 b)
  done

let test_rng_seed_sensitivity () =
  let a = Rng.create 1 and b = Rng.create 2 in
  Alcotest.(check bool)
    "different seeds differ" false
    (Rng.bits64 a = Rng.bits64 b)

let test_rng_split_independent () =
  let a = Rng.create 7 in
  let child = Rng.split a in
  (* Draws from the child do not change the parent's future. *)
  let parent_copy = Rng.copy a in
  ignore (Rng.bits64 child);
  ignore (Rng.bits64 child);
  check Alcotest.int64 "parent unaffected by child" (Rng.bits64 parent_copy)
    (Rng.bits64 a)

let test_rng_int_bounds () =
  let rng = Rng.create 3 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 17 in
    Alcotest.(check bool) "in [0,17)" true (v >= 0 && v < 17)
  done

let test_rng_int_rejects_nonpositive () =
  let rng = Rng.create 3 in
  Alcotest.check_raises "zero bound"
    (Invalid_argument "Rng.int: bound must be positive") (fun () ->
      ignore (Rng.int rng 0))

let test_rng_float_bounds () =
  let rng = Rng.create 4 in
  for _ = 1 to 10_000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in [0,2.5)" true (v >= 0.0 && v < 2.5)
  done

let test_rng_uniformity () =
  let rng = Rng.create 5 in
  let buckets = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let b = Rng.int rng 10 in
    buckets.(b) <- buckets.(b) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      Alcotest.(check bool)
        "bucket within 5% of uniform" true
        (abs (c - expected) < expected / 20))
    buckets

let test_rng_chance_extremes () =
  let rng = Rng.create 6 in
  Alcotest.(check bool) "p=0 never" false (Rng.chance rng 0.0);
  Alcotest.(check bool) "p=1 always" true (Rng.chance rng 1.0)

let test_rng_geometric_mean () =
  let rng = Rng.create 8 in
  let n = 50_000 in
  let total = ref 0 in
  for _ = 1 to n do
    total := !total + Rng.geometric rng 0.5
  done;
  let mean = float_of_int !total /. float_of_int n in
  (* mean of Geom(0.5) failures = 1.0 *)
  Alcotest.(check bool) "geometric mean near 1" true (abs_float (mean -. 1.0) < 0.05)

let test_weighted_index () =
  let rng = Rng.create 9 in
  let counts = Array.make 3 0 in
  for _ = 1 to 30_000 do
    let i = Rng.weighted_index rng [| 1.0; 2.0; 7.0 |] in
    counts.(i) <- counts.(i) + 1
  done;
  Alcotest.(check bool) "heaviest bucket dominates" true
    (counts.(2) > counts.(1) && counts.(1) > counts.(0))

let test_shuffle_permutation () =
  let rng = Rng.create 10 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  check
    Alcotest.(array int)
    "is a permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------ Stats ----------------------------- *)

let test_mean () =
  checkf "mean" 2.0 (Stats.mean [ 1.0; 2.0; 3.0 ]);
  checkf "empty mean" 0.0 (Stats.mean [])

let test_geomean () =
  checkf "geomean" 2.0 (Stats.geomean [ 1.0; 2.0; 4.0 ]);
  Alcotest.check_raises "rejects non-positive"
    (Invalid_argument "Stats.geomean: non-positive input") (fun () ->
      ignore (Stats.geomean [ 1.0; 0.0 ]))

let test_stddev () =
  checkf "constant has zero stddev" 0.0 (Stats.stddev [ 5.0; 5.0; 5.0 ]);
  checkf "known stddev" 2.0 (Stats.stddev [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ])

let test_percentile () =
  checkf "median" 2.0 (Stats.percentile 50.0 [ 1.0; 2.0; 3.0 ]);
  checkf "min" 1.0 (Stats.percentile 0.0 [ 3.0; 1.0; 2.0 ]);
  checkf "max" 3.0 (Stats.percentile 100.0 [ 3.0; 1.0; 2.0 ])

let test_speedup () =
  checkf "20% faster" 0.25 (Stats.speedup ~baseline:100.0 ~optimized:80.0)

let test_running () =
  let r = Stats.Running.create () in
  List.iter (Stats.Running.add r) [ 1.0; 2.0; 3.0; 4.0 ];
  check Alcotest.int "count" 4 (Stats.Running.count r);
  checkf "mean" 2.5 (Stats.Running.mean r);
  checkf "variance" 1.25 (Stats.Running.variance r)

(* ------------------------------- Dist ----------------------------- *)

let test_histogram () =
  let h = Dist.Histogram.create () in
  Dist.Histogram.add h 3;
  Dist.Histogram.add h 3;
  Dist.Histogram.addn h 5 4;
  check Alcotest.int "count" 6 (Dist.Histogram.count h);
  check Alcotest.int "get 3" 2 (Dist.Histogram.get h 3);
  check Alcotest.int "max value" 5 (Dist.Histogram.max_value h);
  checkf "fraction" (2.0 /. 6.0) (Dist.Histogram.fraction h 3);
  checkf "at least 4" (4.0 /. 6.0) (Dist.Histogram.fraction_at_least h 4);
  check
    Alcotest.(list (pair int int))
    "bins sorted" [ (3, 2); (5, 4) ] (Dist.Histogram.bins h);
  checkf "mean" ((6.0 +. 20.0) /. 6.0) (Dist.Histogram.mean h)

let test_cdf () =
  let c = Dist.Cdf.of_weighted [ (1.0, 1.0); (2.0, 1.0); (4.0, 2.0) ] in
  checkf "below support" 0.0 (Dist.Cdf.eval c 0.5);
  checkf "at 1" 0.25 (Dist.Cdf.eval c 1.0);
  checkf "between" 0.5 (Dist.Cdf.eval c 3.0);
  checkf "at end" 1.0 (Dist.Cdf.eval c 4.0);
  checkf "median value" 2.0 (Dist.Cdf.quantile c 0.5)

(* --------------------------- Text_table --------------------------- *)

let contains ~needle haystack =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_table_render () =
  let s =
    Util.Text_table.render ~header:[ "a"; "b" ] [ [ "x"; "1" ]; [ "yy" ] ]
  in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.sub s 0 1 = "a");
  (* the ragged row is padded rather than raising *)
  Alcotest.(check bool) "mentions yy" true (contains ~needle:"yy" s)

let test_bar_chart () =
  let c = Util.Text_table.bar_chart [ ("a", 0.1); ("bb", -0.05); ("c", 0.0) ] in
  Alcotest.(check bool) "labels present" true
    (contains ~needle:"bb" c && contains ~needle:"10.0%" c);
  Alcotest.(check bool) "negative marked" true (contains ~needle:"-" c);
  (* all-zero input must not divide by zero *)
  let z = Util.Text_table.bar_chart [ ("x", 0.0) ] in
  Alcotest.(check bool) "zero chart renders" true (String.length z > 0)

(* ----------------------------- qcheck ----------------------------- *)

let prop_rng_int_in_range =
  QCheck.Test.make ~name:"rng int stays in range" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create seed in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 20) (float_bound_exclusive 100.0))
    (fun xs ->
      QCheck.assume (xs <> []);
      Stats.percentile 25.0 xs <= Stats.percentile 75.0 xs)

let prop_cdf_bounded =
  QCheck.Test.make ~name:"cdf values in [0,1]" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 20)
           (pair (float_bound_exclusive 100.0) (float_range 0.1 5.0)))
        (float_bound_exclusive 200.0))
    (fun (pts, x) ->
      let c = Dist.Cdf.of_weighted pts in
      let v = Dist.Cdf.eval c x in
      v >= 0.0 && v <= 1.0)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_rng_int_in_range; prop_percentile_monotone; prop_cdf_bounded ]

(* --------------------------- Atomic_io ---------------------------- *)

(* The durable write's contract: whatever IO operation a crash lands
   on, a reader afterwards sees the complete old content or the
   complete new content — never a tear, never an absence.  A contained
   ENOSPC must additionally leave the OLD content (the caller was told
   the write failed). *)
let test_atomic_write_crash_points () =
  let dir = Filename.temp_file "critics-aio" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let path = Filename.concat dir "state" in
      let old_content = "old content, fully intact" in
      let new_content = "NEW content, rather longer than the old one" in
      (* Learn the op count of one durable write. *)
      let total =
        let count = ref 0 in
        let inject ~op:_ =
          incr count;
          Util.Atomic_io.Proceed
        in
        Util.Atomic_io.write ~durable:true ~inject path old_content;
        !count
      in
      Alcotest.(check bool) "durable write has ops" true (total >= 3);
      for at = 0 to total - 1 do
        List.iteri
          (fun case action ->
            Util.Atomic_io.write ~durable:true path old_content;
            let fired = ref false in
            let count = ref 0 in
            let inject ~op:_ =
              let n = !count in
              incr count;
              if n = at && not !fired then begin
                fired := true;
                action
              end
              else Util.Atomic_io.Proceed
            in
            let crashed =
              match
                Util.Atomic_io.write ~durable:true ~inject path new_content
              with
              | () -> false
              | exception Util.Atomic_io.Injected_crash _ -> true
              | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> false
            in
            let label what =
              Printf.sprintf "op %d case %d: %s" at case what
            in
            let got = Util.Atomic_io.read_file path in
            Alcotest.(check bool)
              (label "old or new, never torn")
              true
              (got = old_content || got = new_content);
            (* A write that returned success must show the new bytes.
               A contained failure may show either (an ENOSPC after the
               rename reports failure for an install that landed — the
               ambiguity every commit protocol has) but never a tear,
               which the check above already enforced. *)
            if (not crashed) && not !fired then
              Alcotest.(check string)
                (label "completed write installed")
                new_content got;
            ignore (Util.Atomic_io.sweep_tmp dir))
          [
            Util.Atomic_io.Crash;
            Util.Atomic_io.Torn 4;
            Util.Atomic_io.Fail 2;
          ]
      done)

let test_atomic_write_sweeps_crash_tmp () =
  let dir = Filename.temp_file "critics-aio" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun e -> Sys.remove (Filename.concat dir e))
        (Sys.readdir dir);
      Unix.rmdir dir)
    (fun () ->
      let path = Filename.concat dir "state" in
      let inject ~op =
        if op = "aio.write" then Util.Atomic_io.Torn 2
        else Util.Atomic_io.Proceed
      in
      (match Util.Atomic_io.write ~durable:true ~inject path "payload" with
      | () -> Alcotest.fail "injected crash did not fire"
      | exception Util.Atomic_io.Injected_crash _ -> ());
      (* The simulated crash leaves its torn tmp, exactly like a real
         one; the next startup's sweep collects it. *)
      Alcotest.(check int) "torn tmp left behind" 1
        (Util.Atomic_io.sweep_tmp dir);
      Alcotest.(check int) "sweep is idempotent" 0
        (Util.Atomic_io.sweep_tmp dir))

(* -------- Memo -------- *)

(* Both computations wait until both domains are inside one, so both
   miss and both compute: the first insert must win for both callers. *)
let test_memo_race_first_insert_wins () =
  let m = Util.Memo.create () in
  let entered = Atomic.make 0 in
  let compute () =
    Atomic.incr entered;
    while Atomic.get entered < 2 do
      Domain.cpu_relax ()
    done;
    ref 0
  in
  let other = Domain.spawn (fun () -> Util.Memo.find_or_add m "k" compute) in
  let mine = Util.Memo.find_or_add m "k" compute in
  let theirs = Domain.join other in
  Alcotest.(check bool) "physically equal" true (mine == theirs);
  Alcotest.(check int) "one insert" 1 (Util.Memo.inserts m);
  Alcotest.(check int) "one entry" 1 (Util.Memo.length m)

let test_memo_capacity_evicts_lru () =
  let m = Util.Memo.create ~capacity:1 () in
  List.iter
    (fun k -> ignore (Util.Memo.find_or_add m k (fun () -> k)))
    [ "A"; "B"; "A" ];
  Alcotest.(check int) "inserts" 3 (Util.Memo.inserts m);
  Alcotest.(check int) "evictions" 2 (Util.Memo.evictions m);
  Alcotest.(check (option string))
    "A resident" (Some "A") (Util.Memo.find_opt m "A");
  Alcotest.(check (option string)) "B evicted" None (Util.Memo.find_opt m "B")

let test_memo_raise_leaves_no_entry () =
  let m = Util.Memo.create () in
  let calls = ref 0 in
  (match Util.Memo.find_or_add m 1 (fun () -> incr calls; failwith "boom") with
  | _ -> Alcotest.fail "computation did not raise"
  | exception Failure _ -> ());
  Alcotest.(check int) "no entry" 0 (Util.Memo.length m);
  Alcotest.(check int) "recomputed" 7
    (Util.Memo.find_or_add m 1 (fun () -> incr calls; 7));
  Alcotest.(check int) "two computations" 2 !calls

let test_memo_nested () =
  let m = Util.Memo.create () in
  let outer =
    Util.Memo.find_or_add m "outer" (fun () ->
        1 + Util.Memo.find_or_add m "inner" (fun () -> 41))
  in
  Alcotest.(check int) "nested value" 42 outer;
  Alcotest.(check int) "both inserted" 2 (Util.Memo.inserts m)

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_rng_determinism;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "split independence" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int rejects <=0" `Quick test_rng_int_rejects_nonpositive;
          Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
          Alcotest.test_case "uniformity" `Slow test_rng_uniformity;
          Alcotest.test_case "chance extremes" `Quick test_rng_chance_extremes;
          Alcotest.test_case "geometric mean" `Slow test_rng_geometric_mean;
          Alcotest.test_case "weighted index" `Quick test_weighted_index;
          Alcotest.test_case "shuffle permutes" `Quick test_shuffle_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_mean;
          Alcotest.test_case "geomean" `Quick test_geomean;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "speedup" `Quick test_speedup;
          Alcotest.test_case "running" `Quick test_running;
        ] );
      ( "dist",
        [
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "cdf" `Quick test_cdf;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "bar chart" `Quick test_bar_chart;
        ] );
      ( "atomic-io",
        [
          Alcotest.test_case "crash at every IO op" `Quick
            test_atomic_write_crash_points;
          Alcotest.test_case "crash tmp swept" `Quick
            test_atomic_write_sweeps_crash_tmp;
        ] );
      ( "memo",
        [
          Alcotest.test_case "race keeps first insert" `Quick
            test_memo_race_first_insert_wins;
          Alcotest.test_case "capacity evicts lru" `Quick
            test_memo_capacity_evicts_lru;
          Alcotest.test_case "raise leaves no entry" `Quick
            test_memo_raise_leaves_no_entry;
          Alcotest.test_case "nested find_or_add" `Quick test_memo_nested;
        ] );
      ("properties", qcheck_cases);
    ]
