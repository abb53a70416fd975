(** Instruction Chains (ICs).

    An IC is an acyclic DFG path that is independently schedulable: the
    first node has no in-window producers and every later node's
    producers all lie within the path, so the chain can execute as an
    atomic unit with no dependences into its interior.  Any prefix of an
    IC is itself an IC. *)

type t = { nodes : int list }
(** Window indices of the chain members, in dependence (= stream) order. *)

val length : t -> int

val is_ic : Graph.t -> int list -> bool
(** Check the IC property for an arbitrary node list: consecutive nodes
    connected by RAW edges, first node a root, and every node's
    producers contained in the preceding members. *)

val enumerate : ?max_paths:int -> ?max_len:int -> Graph.t -> t list
(** All maximal ICs, by depth-first extension from each root.  The
    search stops adding new paths once [max_paths] (default 4096) have
    been produced and truncates chains at [max_len] (default 4096)
    nodes.  Deterministic. *)

val enumerate_greedy : ?max_len:int -> Graph.t -> t list
(** One cluster-style IC per root, grown greedily: at each step absorb
    the lowest-indexed node whose producers are all already members and
    that consumes some member.  This is the Fig. 4 flavour of chains
    (e.g. I1,I6,...,I12: a root with its whole fanout tree), as opposed
    to {!enumerate}'s strict paths.  Every result satisfies {!is_ic}. *)

val criticality : Graph.t -> t -> float
(** The paper's chain criticality metric: average fanout per
    instruction. *)

val spread : Graph.t -> t -> int
(** Dynamic-stream distance (in instructions) between the first and the
    last member — the Fig. 5a "spread". *)

val prefixes : t -> t list
(** All prefixes of length 2 or more, shortest first. *)
