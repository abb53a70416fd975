(* Canonical architectural commit log produced by the golden-model
   interpreter (Interp).  The log has two granularities:

   - [entries]: one entry per dynamic instruction in program order,
     carrying the architectural effects (register writes with values,
     memory reads/writes with addresses and values, branch outcomes).
     This is what the differential harness lines up against the cycle
     simulator's retirement stream.

   - [block_digests]: one 64-bit digest per executed block instance,
     folding the end-of-block register file, the multiset of memory
     writes performed inside the block, and the control decision that
     left it.  The multiset (not sequence) of stores makes the digest
     invariant under the legal intra-block reorderings the compiler
     passes perform, while remaining sensitive to any dataflow change —
     this is the equivalence the transform fuzzer checks. *)

type value = int64

type effect_ =
  | Reg_write of { reg : int; value : value }
  | Mem_read of { addr : int; value : value }
  | Mem_write of { addr : int; value : value }
  | Branch_out of { taken : bool }

type entry = {
  seq : int;
  uid : int;
  pc : int;
  block_id : int;
  opcode : Isa.Opcode.t;
  effects : effect_ list;
}

type t = {
  entries : entry array;
  block_digests : int64 array;
  final_regs : value array;
  digest : int64;
}

(* SplitMix64 finalizer: the one deterministic value-mixing function the
   whole oracle is built on. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let golden = 0x9E3779B97F4A7C15L

(* Non-commutative combine: order matters. *)
let mix2 a b = mix64 (Int64.add (mix64 a) (Int64.mul golden b))
let mix_int a i = mix2 a (Int64.of_int i)

let effect_digest acc = function
  | Reg_write { reg; value } -> mix2 (mix_int acc (reg + 1)) value
  | Mem_read { addr; value } -> mix2 (mix_int acc (-addr - 1)) value
  | Mem_write { addr; value } -> mix2 (mix_int acc (addr + 1)) value
  | Branch_out { taken } -> mix_int acc (if taken then 3 else 5)

let entry_digest e =
  let acc = mix_int (mix_int (Int64.of_int e.seq) e.uid) e.pc in
  List.fold_left effect_digest acc e.effects

let log_digest entries final_regs =
  let acc = Array.fold_left (fun acc e -> mix2 acc (entry_digest e)) 1L entries in
  Array.fold_left mix2 acc final_regs

let make ~entries ~block_digests ~final_regs =
  { entries; block_digests; final_regs;
    digest = log_digest entries final_regs }

let mem_addr_of_entry e =
  List.fold_left
    (fun acc eff ->
      match eff with
      | Mem_read { addr; _ } | Mem_write { addr; _ } -> addr
      | Reg_write _ | Branch_out _ -> acc)
    (-1) e.effects

let taken_of_entry e =
  List.fold_left
    (fun acc eff ->
      match eff with Branch_out { taken } -> taken | _ -> acc)
    false e.effects

(* ----------------------------- printing --------------------------- *)

let pp_effect fmt = function
  | Reg_write { reg; value } ->
    Format.fprintf fmt "r%d := %Lx" reg value
  | Mem_read { addr; value } -> Format.fprintf fmt "load [%#x] = %Lx" addr value
  | Mem_write { addr; value } ->
    Format.fprintf fmt "store [%#x] <- %Lx" addr value
  | Branch_out { taken } ->
    Format.fprintf fmt "branch %s" (if taken then "taken" else "not-taken")

let pp_entry fmt e =
  Format.fprintf fmt "#%d uid=%d pc=%#x blk=%d %a [%a]" e.seq e.uid e.pc
    e.block_id Isa.Opcode.pp e.opcode
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.fprintf fmt "; ")
       pp_effect)
    e.effects

(* ---------------------------- comparison -------------------------- *)

type divergence = {
  at : int;             (* index into the diverging stream *)
  expected : string;    (* description from the first log *)
  got : string;         (* description from the second log *)
}

let arch_equivalent a b =
  a.block_digests = b.block_digests && a.final_regs = b.final_regs

(* First block instance whose digest diverges, as an actionable
   description.  Fine-grained entry mismatch is reported by the
   differential harness, which also knows the cycle-simulator side. *)
let first_divergence a b =
  if arch_equivalent a b then None
  else begin
    let na = Array.length a.block_digests
    and nb = Array.length b.block_digests in
    if na <> nb then
      Some
        {
          at = min na nb;
          expected = Printf.sprintf "%d block instances" na;
          got = Printf.sprintf "%d block instances" nb;
        }
    else begin
      let i = ref 0 in
      while !i < na && a.block_digests.(!i) = b.block_digests.(!i) do incr i done;
      if !i < na then
        Some
          {
            at = !i;
            expected = Printf.sprintf "block digest %Lx" a.block_digests.(!i);
            got = Printf.sprintf "block digest %Lx" b.block_digests.(!i);
          }
      else begin
        let r = ref 0 in
        while
          !r < Array.length a.final_regs && a.final_regs.(!r) = b.final_regs.(!r)
        do
          incr r
        done;
        Some
          {
            at = !r;
            expected = Printf.sprintf "final r%d = %Lx" !r a.final_regs.(!r);
            got = Printf.sprintf "final r%d = %Lx" !r b.final_regs.(!r);
          }
      end
    end
  end
