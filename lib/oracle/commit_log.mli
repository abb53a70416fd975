(** Canonical architectural commit log.

    The golden-model interpreter ({!Interp}) emits one of these per run:
    a per-instruction effect stream in program order plus a per-block
    digest stream that is invariant under the legal intra-block
    reorderings performed by the compiler passes (the store multiset and
    end-of-block register file are order-insensitive within a block) yet
    sensitive to any dataflow change. *)

type value = int64

type effect_ =
  | Reg_write of { reg : int; value : value }
  | Mem_read of { addr : int; value : value }
  | Mem_write of { addr : int; value : value }
  | Branch_out of { taken : bool }

type entry = {
  seq : int;          (** position in the commit stream *)
  uid : int;          (** static uid (synthetic for terminators) *)
  pc : int;
  block_id : int;
  opcode : Isa.Opcode.t;
  effects : effect_ list;
}

type t = {
  entries : entry array;
  block_digests : int64 array;  (** one digest per executed block instance *)
  final_regs : value array;     (** architectural register file at exit *)
  digest : int64;               (** digest of the entire fine-grained log *)
}

val make :
  entries:entry array ->
  block_digests:int64 array ->
  final_regs:value array ->
  t

val mem_addr_of_entry : entry -> int
(** Memory address touched, or [-1] when the entry has no memory effect. *)

val taken_of_entry : entry -> bool
(** [true] iff the entry carries a taken branch outcome. *)

val mix64 : int64 -> int64
(** SplitMix64 finalizer — the deterministic mixing function the oracle's
    value semantics is built on. *)

val mix2 : int64 -> int64 -> int64
(** Non-commutative combine of two values. *)

val mix_int : int64 -> int -> int64

val pp_effect : Format.formatter -> effect_ -> unit
val pp_entry : Format.formatter -> entry -> unit

type divergence = { at : int; expected : string; got : string }

val arch_equivalent : t -> t -> bool
(** Block-digest and final-register-file equality: the semantic
    equivalence the transform fuzzer demands of every compiler pass. *)

val first_divergence : t -> t -> divergence option
(** [None] iff {!arch_equivalent}; otherwise a description of the first
    diverging block instance (or final register). *)
