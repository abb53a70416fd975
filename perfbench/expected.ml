(* Recorded output digests, one line per request:
     <table> <instrs> <request-key> <md5-hex>
   The paper workloads share the table "paper", so paper-cold and
   paper-warm must print the same artifacts. *)

type t = (string * int * string, string) Hashtbl.t

let empty () : t = Hashtbl.create 16

let load path : t =
  let t = empty () in
  In_channel.with_open_text path (fun ic ->
      let rec go lineno =
        match In_channel.input_line ic with
        | None -> ()
        | Some "" -> go (lineno + 1)
        | Some line -> (
          match String.split_on_char ' ' line with
          | [ table; instrs; key; digest ] when int_of_string_opt instrs <> None
            ->
            Hashtbl.replace t (table, int_of_string instrs, key) digest;
            go (lineno + 1)
          | _ ->
            failwith (Printf.sprintf "%s:%d: malformed digest line" path lineno))
      in
      go 1);
  t

let line ~table ~instrs key digest =
  Printf.sprintf "%s %d %s %s" table instrs key digest

exception Unrecorded of string * int

(* A run's reference: the digests recorded for one table at one budget.
   A budget with no recorded digests is refused, so every output of a
   run is compared with a recording; a key missing from the recording
   is a failure. *)
type checker = { expected : t; table : string; instrs : int }

let checker expected ~table ~instrs =
  if not (Hashtbl.fold (fun (tb, n, _) _ acc -> acc || (tb = table && n = instrs)) expected false)
  then raise (Unrecorded (table, instrs));
  { expected; table; instrs }

let check c key digest =
  match Hashtbl.find_opt c.expected (c.table, c.instrs, key) with
  | Some d -> String.equal d digest
  | None -> false
