type length_point = {
  n : int;
  speedup : float;
  fetch_saving : float;
  coverage : float;
}

type coverage_point = { fraction : float; speedup : float }

type result = { lengths : length_point list; coverage : coverage_point list }

let chain_lengths = [ 2; 3; 4; 5; 6; 7; 8; 9 ]
let fractions = [ 0.125; 0.25; 0.375; 0.5; 0.75; 1.0 ]

let run h =
  let mobile = List.assoc "Mobile" Harness.suites in
  let variants =
    List.map (fun n -> Critics.Run.Exact_length n) chain_lengths
    @ List.map (fun f -> Critics.Run.Fraction f) fractions
  in
  Harness.run_batch h
    (List.concat_map
       (fun app ->
         Harness.job app Critics.Scheme.Baseline
         :: List.map
              (fun variant -> Harness.job ~variant app Critics.Scheme.Critic)
              variants)
       mobile);
  (* Each setting's per-app values in suite order, so every mean sums
     in the same order. *)
  let per_app variant f =
    List.map
      (fun app ->
        f app
          (Harness.stats h app Critics.Scheme.Baseline)
          (Harness.stats h ~variant app Critics.Scheme.Critic))
      mobile
  in
  let lengths =
    List.map
      (fun n ->
        let mean f = Harness.mean (per_app (Critics.Run.Exact_length n) f) in
        {
          n;
          speedup = mean (fun _ base st -> Critics.Run.speedup ~base st);
          fetch_saving =
            mean (fun _ (base : Pipeline.Stats.t) st ->
                float_of_int (base.fetch_idle_supply - st.fetch_idle_supply)
                /. float_of_int base.cycles);
          coverage =
            mean (fun app _ _ ->
                Profiler.Critic_db.coverage
                  (Profiler.Critic_db.exact_length n
                     (Harness.context h app).Critics.Run.db));
        })
      chain_lengths
  in
  let coverage =
    List.map
      (fun fraction ->
        {
          fraction;
          speedup =
            Harness.mean
              (per_app (Critics.Run.Fraction fraction) (fun _ base st ->
                   Critics.Run.speedup ~base st));
        })
      fractions
  in
  { lengths; coverage }

let render r =
  let pct = Util.Stats.pct in
  let a =
    Util.Text_table.render
      ~header:[ "chain length n"; "speedup"; "fetch saving"; "coverage" ]
      (List.map
         (fun p ->
           [
             string_of_int p.n; pct p.speedup; pct p.fetch_saving;
             pct p.coverage;
           ])
         r.lengths)
  in
  let b =
    Util.Text_table.render
      ~header:[ "profiled fraction"; "speedup" ]
      (List.map
         (fun p ->
           [ Printf.sprintf "%.0f%%" (100.0 *. p.fraction); pct p.speedup ])
         r.coverage)
  in
  "Fig 12a: sensitivity to CritIC length (exact n)\n" ^ a
  ^ "\n\nFig 12b: sensitivity to profiling coverage\n" ^ b
