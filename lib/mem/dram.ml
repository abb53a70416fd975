type config = {
  channels : int;
  ranks_per_channel : int;
  banks_per_rank : int;
  row_bytes : int;
  tcl_cycles : int;
  trp_cycles : int;
  trcd_cycles : int;
  burst_cycles : int;
}

let default_config =
  {
    channels = 1;
    ranks_per_channel = 2;
    banks_per_rank = 8;
    row_bytes = 2048;
    tcl_cycles = 17;
    trp_cycles = 17;
    trcd_cycles = 17;
    burst_cycles = 4;
  }

type bank = { mutable open_row : int; mutable busy_until : int }

type stats = {
  reads : int;
  writes : int;
  row_hits : int;
  row_misses : int;
}

type t = {
  config : config;
  banks : bank array;
  mutable reads : int;
  mutable writes : int;
  mutable row_hits : int;
  mutable row_misses : int;
}

let create ?(config = default_config) () =
  let nbanks =
    config.channels * config.ranks_per_channel * config.banks_per_rank
  in
  {
    config;
    banks = Array.init nbanks (fun _ -> { open_row = -1; busy_until = 0 });
    reads = 0;
    writes = 0;
    row_hits = 0;
    row_misses = 0;
  }

let access t ~now ~write addr =
  let c = t.config in
  let nbanks = Array.length t.banks in
  let row_id = addr / c.row_bytes in
  (* Interleave rows across banks so streaming accesses spread out. *)
  let bank = t.banks.(row_id mod nbanks) in
  if write then t.writes <- t.writes + 1 else t.reads <- t.reads + 1;
  let start = max now bank.busy_until in
  let service =
    if bank.open_row = row_id then begin
      t.row_hits <- t.row_hits + 1;
      c.tcl_cycles + c.burst_cycles
    end
    else begin
      t.row_misses <- t.row_misses + 1;
      let precharge = if bank.open_row = -1 then 0 else c.trp_cycles in
      precharge + c.trcd_cycles + c.tcl_cycles + c.burst_cycles
    end
  in
  bank.open_row <- row_id;
  bank.busy_until <- start + service;
  (start - now) + service

let stats t =
  {
    reads = t.reads;
    writes = t.writes;
    row_hits = t.row_hits;
    row_misses = t.row_misses;
  }
