(** Structured error taxonomy for the simulator's named failures.

    The cycle core's fuel watchdog raises [Timeout] and the profile
    database loader raises [Corrupt_input]; any other exception a
    caller wants to report is converted with {!of_exn} into [Fatal].
    Bench uses the rendered form to report a failed artifact while the
    rest of the batch completes. *)

type kind =
  | Fatal  (** deterministic failure; retrying cannot help *)
  | Timeout  (** cooperative deadline exceeded (simulation fuel) *)
  | Corrupt_input  (** malformed persistent artifact (profile DB, ...) *)

type t = { kind : kind; msg : string }

exception Error of t
(** The carrier for every classified failure.  Raw exceptions are
    converted with {!of_exn}. *)

val failf : kind -> ('a, unit, string, 'b) format4 -> 'a
(** Raise [Error] of the given kind with a formatted message. *)

val of_exn : exn -> t
(** [Error e] passes through; anything else becomes [Fatal] with the
    printed exception. *)

val kind_name : kind -> string
val to_string : t -> string
