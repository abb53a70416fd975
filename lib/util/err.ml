type kind = Fatal | Timeout | Corrupt_input

type t = { kind : kind; msg : string }

exception Error of t

let failf kind fmt =
  Printf.ksprintf (fun msg -> raise (Error { kind; msg })) fmt

let kind_name = function
  | Fatal -> "fatal"
  | Timeout -> "timeout"
  | Corrupt_input -> "corrupt-input"

let of_exn = function
  | Error e -> e
  | Failure msg -> { kind = Fatal; msg }
  | exn -> { kind = Fatal; msg = Printexc.to_string exn }

let to_string e = Printf.sprintf "[%s] %s" (kind_name e.kind) e.msg

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Err.Error " ^ to_string e)
    | _ -> None)
