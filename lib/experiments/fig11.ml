type row = { mechanism : string; alone : float; with_critic : float }

type stall_row = {
  mechanism : string;
  supply_delta : float;
  backpressure_delta : float;
}

type result = { critic_alone : float; rows : row list; stalls : stall_row list }

let mechanisms =
  let open Pipeline.Config in
  [
    ("2xFD", with_2x_fd);
    ("4xI$", with_4x_icache);
    ("EFetch", with_efetch);
    ("PerfectBr", with_perfect_branch);
    ("BackendPrio", with_backend_prio);
    ("AllHW", all_hw);
  ]

let jobs () =
  let mobile = List.assoc "Mobile" Harness.suites in
  let configs =
    Pipeline.Config.table_i
    :: List.map (fun (_, f) -> f Pipeline.Config.table_i) mechanisms
  in
  List.concat_map
    (fun app ->
      List.concat_map
        (fun config ->
          [
            Harness.job ~config app Critics.Scheme.Baseline;
            Harness.job ~config app Critics.Scheme.Critic;
          ])
        configs)
    mobile

let run h =
  let mobile = List.assoc "Mobile" Harness.suites in
  let mean_speedup ?config scheme =
    Harness.mean
      (List.map (fun app -> Harness.speedup h ?config app scheme) mobile)
  in
  let critic_alone = mean_speedup Critics.Scheme.Critic in
  let rows =
    List.map
      (fun (name, f) ->
        let config = f Pipeline.Config.table_i in
        {
          mechanism = name;
          alone = mean_speedup ~config Critics.Scheme.Baseline;
          with_critic = mean_speedup ~config Critics.Scheme.Critic;
        })
      mechanisms
  in
  let stalls =
    List.map
      (fun (name, f) ->
        let config = f Pipeline.Config.table_i in
        let deltas =
          List.map
            (fun app ->
              let base = Harness.stats h app Critics.Scheme.Baseline in
              let st = Harness.stats h ~config app Critics.Scheme.Baseline in
              let share part (s : Pipeline.Stats.t) =
                float_of_int part /. float_of_int (max 1 s.cycles)
              in
              ( share st.Pipeline.Stats.fetch_idle_supply st
                -. share base.Pipeline.Stats.fetch_idle_supply base,
                share st.Pipeline.Stats.fetch_idle_backpressure st
                -. share base.Pipeline.Stats.fetch_idle_backpressure base ))
            mobile
        in
        {
          mechanism = name;
          supply_delta = Harness.mean (List.map fst deltas);
          backpressure_delta = Harness.mean (List.map snd deltas);
        })
      mechanisms
  in
  { critic_alone; rows; stalls }

let render r =
  let pct = Util.Stats.pct in
  let a =
    Util.Text_table.render
      ~header:[ "Mechanism"; "alone"; "+ CritIC" ]
      ([ [ "CritIC (software only)"; pct r.critic_alone; "-" ] ]
      @ List.map
          (fun (row : row) -> [ row.mechanism; pct row.alone; pct row.with_critic ])
          r.rows)
  in
  let b =
    Util.Text_table.render
      ~header:
        [ "Mechanism"; "Δ fetch idle (supply)"; "Δ fetch idle (backpr.)" ]
      (List.map
         (fun (s : stall_row) ->
           [ s.mechanism; pct s.supply_delta; pct s.backpressure_delta ])
         r.stalls)
  in
  let chart =
    Util.Text_table.bar_chart
      (("CritIC (sw only)", r.critic_alone)
      :: List.map (fun (row : row) -> (row.mechanism, row.alone)) r.rows)
  in
  "Fig 11a: hardware mechanisms vs CritIC (mean mobile speedup)\n" ^ a
  ^ "\n" ^ chart
  ^ "\n\nFig 11b: effect on fetch stalls (share of each config's cycles)\n"
  ^ b
