(* Host-time spans recorded around calls into the library's layers.

   A recorder is either off — [span] then just calls the function, with
   no clock read — or on, keeping every span in memory until the run
   writes them out.  A span's parent is the span open when it started;
   spans of one request (artifact id for the paper workloads) share
   the request id. *)

type span = {
  id : int;
  name : string;
  parent : int option;
  request : string;
  start : float;  (* seconds since the recorder was created *)
  stop : float;
}

type t = {
  on : bool;
  origin : float;
  mutable next_id : int;
  mutable stack : int list;
  mutable finished : span list;  (* most recent first *)
}

let create ~on =
  { on; origin = Unix.gettimeofday (); next_id = 0; stack = []; finished = [] }

let enabled t = t.on
let now t = Unix.gettimeofday () -. t.origin

let span t ?(request = "") name f =
  if not t.on then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent = match t.stack with [] -> None | p :: _ -> Some p in
    t.stack <- id :: t.stack;
    let start = now t in
    let finish () =
      t.stack <- List.tl t.stack;
      t.finished <- { id; name; parent; request; start; stop = now t } :: t.finished
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

let spans t = List.rev t.finished
let duration s = s.stop -. s.start

(* Total seconds of the spans named [name] that started at or after
   [since]. *)
let total ?(since = 0.) t name =
  List.fold_left
    (fun acc s -> if s.name = name && s.start >= since then acc +. duration s else acc)
    0. t.finished

(* Seconds covered by the spans that started at or after [since], are
   named as [is] says, and have no ancestor that [is] also names; a
   span nested in one already counted adds nothing. *)
let outermost ?(since = 0.) t is =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) t.finished;
  let rec inside = function
    | None -> false
    | Some p -> (
      match Hashtbl.find_opt by_id p with
      | Some s -> is s.name || inside s.parent
      | None -> false)
  in
  List.fold_left
    (fun acc s ->
      if s.start >= since && is s.name && not (inside s.parent) then acc +. duration s
      else acc)
    0. t.finished

let us x = int_of_float (x *. 1e6)

(* Chrome trace-event export through the library's exporter, one async
   slice per span; {!Telemetry.Chrome_trace.validate} accepts it. *)
let to_chrome t =
  let c = Telemetry.Chrome_trace.create ~capacity:(max 16 (2 * t.next_id)) () in
  List.iter
    (fun s ->
      let name = if s.request = "" then s.name else s.name ^ " " ^ s.request in
      Telemetry.Chrome_trace.async_begin c ~ts:(us s.start) ~name ~id:s.id;
      Telemetry.Chrome_trace.async_end c ~ts:(us s.stop) ~name ~id:s.id)
    (spans t);
  Telemetry.Chrome_trace.to_json c

(* The full span records (with parent and request ids), one JSON object
   per line. *)
let to_jsonl t =
  let b = Buffer.create 4096 in
  List.iter
    (fun s ->
      Buffer.add_string b
        (Util.Json.to_string
           (Util.Json.Obj
              [
                ("id", Num (float_of_int s.id));
                ("name", Str s.name);
                ( "parent",
                  match s.parent with
                  | None -> Null
                  | Some p -> Num (float_of_int p) );
                ("request", Str s.request);
                ("start_us", Num (float_of_int (us s.start)));
                ("end_us", Num (float_of_int (us s.stop)));
              ]));
      Buffer.add_char b '\n')
    (spans t);
  Buffer.contents b
