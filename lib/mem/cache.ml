type stats = {
  accesses : int;
  hits : int;
  misses : int;
  fills : int;
  prefetch_fills : int;
  writebacks : int;
}

type t = {
  name : string;
  line_bytes : int;
  line_shift : int;
  sets : int;
  assoc : int;
  tags : int array array;     (* tags.(set).(way); -1 = invalid *)
  dirty : bool array array;
  repl : Replacement.t;
  mutable accesses : int;
  mutable hits : int;
  mutable misses : int;
  mutable fills : int;
  mutable prefetch_fills : int;
  mutable writebacks : int;
  (* Victim of the most recent install, readable without allocating the
     [(addr, dirty) option] of {!access_evict}: -1 = no valid line was
     displaced.  Only meaningful immediately after {!access_demand} or
     {!fill}. *)
  mutable victim_addr : int;
  mutable victim_dirty : bool;
}

let is_pow2 x = x > 0 && x land (x - 1) = 0

let log2 x =
  let rec go i v = if v <= 1 then i else go (i + 1) (v lsr 1) in
  go 0 x

let create ?(policy = Replacement.Lru) ~name ~size_bytes ~assoc ~line_bytes ()
    =
  if not (is_pow2 line_bytes) then
    invalid_arg "Cache.create: line_bytes must be a power of two";
  if assoc <= 0 then invalid_arg "Cache.create: assoc must be positive";
  if size_bytes mod (assoc * line_bytes) <> 0 then
    invalid_arg "Cache.create: size not divisible by assoc * line";
  let sets = size_bytes / (assoc * line_bytes) in
  {
    name;
    line_bytes;
    line_shift = log2 line_bytes;
    sets;
    assoc;
    tags = Array.init sets (fun _ -> Array.make assoc (-1));
    dirty = Array.init sets (fun _ -> Array.make assoc false);
    repl = Replacement.create policy ~sets ~assoc;
    accesses = 0;
    hits = 0;
    misses = 0;
    fills = 0;
    prefetch_fills = 0;
    writebacks = 0;
    victim_addr = -1;
    victim_dirty = false;
  }

let name t = t.name
let line_bytes t = t.line_bytes
let sets t = t.sets
let assoc t = t.assoc
let policy t = Replacement.kind t.repl
let line_of t addr = addr land lnot (t.line_bytes - 1)

(* -1 when the tag is not present: called once per access, so it avoids
   allocating an option on every cache hit.  Plain loops over mutable
   locals rather than local recursive functions: a [let rec] capturing
   [ways]/[tag] costs a closure allocation per call without flambda,
   which on this per-access path is the difference between a GC-silent
   simulation loop and one minor allocation per cache access. *)
let find_way t set tag =
  let ways = t.tags.(set) in
  let found = ref (-1) in
  let i = ref 0 in
  while !found < 0 && !i < t.assoc do
    if ways.(!i) = tag then found := !i;
    incr i
  done;
  !found

(* Invalid ways are preferred regardless of policy; the replacement
   policy only arbitrates full sets. *)
let victim_way t set =
  let tags = t.tags.(set) in
  let invalid = ref (-1) in
  let i = ref 0 in
  while !invalid < 0 && !i < t.assoc do
    if tags.(!i) = -1 then invalid := !i;
    incr i
  done;
  if !invalid >= 0 then !invalid else Replacement.victim t.repl ~set

(* Install a tag, recording the victim line in [victim_addr]/
   [victim_dirty] ([victim_addr = -1]: no valid line displaced).
   Returns the way used.  [hint] is the replacement policy's fill hint
   (temperature for TRRIP; ignored by the others; -1 = none). *)
let install t set tag hint =
  let way = victim_way t set in
  let old_tag = t.tags.(set).(way) in
  if old_tag = -1 then t.victim_addr <- -1
  else begin
    let addr = ((old_tag * t.sets) + set) lsl t.line_shift in
    let was_dirty = t.dirty.(set).(way) in
    if was_dirty then t.writebacks <- t.writebacks + 1;
    t.victim_addr <- addr;
    t.victim_dirty <- was_dirty
  end;
  t.tags.(set).(way) <- tag;
  t.dirty.(set).(way) <- false;
  Replacement.on_fill t.repl ~set ~way ~hint;
  way

(* [~write]/[~hint] are plain labelled arguments, not optional: the hot
   path in Mem.Hierarchy passes runtime-computed values, and an optional
   argument would box them as [Some _] on every access. *)
let access_demand_hinted ~write ~hint t addr =
  (* set_and_tag, open-coded to skip the per-access pair allocation *)
  let line = addr lsr t.line_shift in
  let set = line mod t.sets and tag = line / t.sets in
  t.accesses <- t.accesses + 1;
  let way = find_way t set tag in
  if way >= 0 then begin
    t.hits <- t.hits + 1;
    Replacement.on_hit t.repl ~set ~way;
    if write then t.dirty.(set).(way) <- true;
    t.victim_addr <- -1;
    true
  end
  else begin
    t.misses <- t.misses + 1;
    t.fills <- t.fills + 1;
    let way = install t set tag hint in
    if write then t.dirty.(set).(way) <- true;
    false
  end

let access_demand ~write t addr = access_demand_hinted ~write ~hint:(-1) t addr

let victim_addr t = t.victim_addr
let victim_dirty t = t.victim_dirty

let access_evict ?(write = false) t addr =
  let hit = access_demand ~write t addr in
  let victim =
    if t.victim_addr = -1 then None else Some (t.victim_addr, t.victim_dirty)
  in
  (hit, victim)

let access ?(write = false) t addr = access_demand ~write t addr

let probe t addr =
  let line = addr lsr t.line_shift in
  find_way t (line mod t.sets) (line / t.sets) >= 0

let fill t addr =
  let line = addr lsr t.line_shift in
  let set = line mod t.sets and tag = line / t.sets in
  let way = find_way t set tag in
  if way >= 0 then begin
    Replacement.on_hit t.repl ~set ~way;
    (* The line was already resident: nothing was displaced.  Leaving
       the previous install's victim in place would let a caller absorb
       the same writeback twice. *)
    t.victim_addr <- -1
  end
  else begin
    t.fills <- t.fills + 1;
    t.prefetch_fills <- t.prefetch_fills + 1;
    ignore (install t set tag (-1))
  end

let invalidate_all t =
  Array.iter (fun ways -> Array.fill ways 0 t.assoc (-1)) t.tags;
  Array.iter (fun d -> Array.fill d 0 t.assoc false) t.dirty;
  Replacement.reset t.repl;
  t.victim_addr <- -1;
  t.victim_dirty <- false

let stats t =
  {
    accesses = t.accesses;
    hits = t.hits;
    misses = t.misses;
    fills = t.fills;
    prefetch_fills = t.prefetch_fills;
    writebacks = t.writebacks;
  }

let miss_rate t =
  if t.accesses = 0 then 0.0
  else float_of_int t.misses /. float_of_int t.accesses
