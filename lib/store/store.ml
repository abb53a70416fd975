let format_version = "critics-store-1"

(* The build's own fingerprint: the digest of the running executable,
   so any rebuild with changed code (committed or not) changes every key.
   An unreadable executable gets a value no other process can produce,
   so its lookups all miss instead of matching another build's entries.
   Computed once; a race between domains keeps the first value set. *)
let code_version_memo = Atomic.make None

let code_version () =
  match Atomic.get code_version_memo with
  | Some v -> v
  | None ->
    let v =
      try Digest.to_hex (Digest.file Sys.executable_name)
      with Sys_error _ ->
        Printf.sprintf "unreadable-%d-%d" (Unix.getpid ())
          (Random.State.bits (Random.State.make_self_init ()))
    in
    ignore (Atomic.compare_and_set code_version_memo None (Some v));
    Option.get (Atomic.get code_version_memo)

type t = {
  dir : string;
  mutable hits : int;
  mutable misses : int;
  mutable writes : int;
  mutable corrupt : int;
  quarantine_limit : int;
  inject : Util.Atomic_io.injector option;
}

let mkdir_p path =
  let rec go path =
    if not (Sys.file_exists path) then begin
      go (Filename.dirname path);
      try Unix.mkdir path 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path;
  if not (Sys.is_directory path) then
    raise (Sys_error (path ^ ": not a directory"))

let default_quarantine_limit = 32

let open_dir ?(quarantine_limit = default_quarantine_limit) ?inject dir =
  mkdir_p dir;
  ignore (Util.Atomic_io.sweep_tmp dir);
  Array.iter
    (fun name ->
      let sub = Filename.concat dir name in
      if Sys.is_directory sub then ignore (Util.Atomic_io.sweep_tmp sub))
    (Sys.readdir dir);
  {
    dir;
    hits = 0;
    misses = 0;
    writes = 0;
    corrupt = 0;
    quarantine_limit;
    inject;
  }

let open_default () =
  match Sys.getenv_opt "CRITICS_CACHE_DIR" with
  | None | Some "" -> None
  | Some dir -> Some (open_dir dir)

let dir t = t.dir

type key = { kind : string; digest : string (* hex *) }

(* The one key derivation.  No sharing: structurally equal values must
   marshal to equal bytes whatever their physical sharing. *)
let key ?code_version:cv ~kind v =
  if String.contains kind '/' then invalid_arg "Store.key: kind with '/'";
  let cv = match cv with Some v -> v | None -> code_version () in
  let bytes = Marshal.to_string (cv, kind, v) [ Marshal.No_sharing ] in
  { kind; digest = Digest.to_hex (Digest.string bytes) }

let key_digest k = k.digest

let path_of t k = Filename.concat (Filename.concat t.dir k.kind) k.digest

(* Entry layout: one header line binding the payload to its key —
   "<format_version> <key-digest> <payload-md5> <payload-length>\n" —
   then the raw payload bytes. *)
let encode k payload =
  Printf.sprintf "%s %s %s %d\n%s" format_version k.digest
    (Digest.to_hex (Digest.string payload))
    (String.length payload) payload

let decode k text =
  match String.index_opt text '\n' with
  | None -> None
  | Some nl ->
    let header = String.sub text 0 nl in
    (match String.split_on_char ' ' header with
    | [ fmt; kd; pd; len ] ->
      let payload_pos = nl + 1 in
      (match int_of_string_opt len with
      | Some n
        when fmt = format_version && kd = k.digest
             && String.length text - payload_pos = n ->
        let payload = String.sub text payload_pos n in
        if Digest.to_hex (Digest.string payload) = pd then Some payload
        else None
      | _ -> None)
    | _ -> None)

(* Corrupt entries are evidence, not garbage: injected- or crash-found
   corruption is moved aside into [<dir>/corrupt/] (bounded; oldest
   evicted) so it can be post-mortemed, instead of being deleted on
   sight.  The counters are untouched by the move — a corrupt entry is
   still one [corrupt] plus one [miss], exactly as before. *)
let quarantine_dirname = "corrupt"

let quarantine_dir t = Filename.concat t.dir quarantine_dirname

let quarantined t =
  let dir = quarantine_dir t in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.sort compare names;
    Array.to_list (Array.map (Filename.concat dir) names)

let quarantine t k =
  let dir = quarantine_dir t in
  try
    mkdir_p dir;
    Sys.rename (path_of t k) (Filename.concat dir (k.kind ^ "." ^ k.digest));
    (* Bound the morgue: evict oldest-first (mtime, then name) past the
       limit so a corruption storm cannot fill the disk. *)
    let entries =
      List.filter_map
        (fun path ->
          match Unix.stat path with
          | { Unix.st_mtime; _ } -> Some (st_mtime, path)
          | exception Unix.Unix_error _ -> None)
        (quarantined t)
    in
    let excess = List.length entries - t.quarantine_limit in
    if excess > 0 then
      List.sort compare entries
      |> List.filteri (fun i _ -> i < excess)
      |> List.iter (fun (_, path) ->
             try Sys.remove path with Sys_error _ -> ())
  with Sys_error _ | Unix.Unix_error _ ->
    (* Quarantine is best-effort; never let it mask the miss. *)
    (try Sys.remove (path_of t k) with Sys_error _ -> ())

let find t k =
  let path = path_of t k in
  match Util.Atomic_io.read_file path with
  | exception Sys_error _ ->
    t.misses <- t.misses + 1;
    None
  | text -> (
    match decode k text with
    | Some payload ->
      t.hits <- t.hits + 1;
      Some payload
    | None ->
      (* Truncation, corruption or collision: quarantine the entry and
         fall back to recompute — never a crash, never a wrong
         payload. *)
      t.corrupt <- t.corrupt + 1;
      t.misses <- t.misses + 1;
      quarantine t k;
      None)

let add t k payload =
  try
    mkdir_p (Filename.concat t.dir k.kind);
    (* Durable: an installed entry that evaporates on power loss is
       harmless (a future miss), but a *named, empty* entry is a
       guaranteed corrupt-count on every later run — pay the fsync. *)
    Util.Atomic_io.write ~durable:true ?inject:t.inject (path_of t k)
      (encode k payload);
    t.writes <- t.writes + 1
  with Sys_error _ | Unix.Unix_error _ -> ()

(* Find → unmarshal → (on a miss or a payload that will not unmarshal)
   recompute and add: the one memo every persisted layer goes through. *)
let memo t k compute =
  let recompute st =
    let v = compute () in
    add st k (Marshal.to_string v []);
    v
  in
  match t with
  | None -> compute ()
  | Some st -> (
    match find st k with
    | None -> recompute st
    | Some bytes -> (
      match Marshal.from_string bytes 0 with
      | v -> v
      | exception _ -> recompute st))

type stats = { hits : int; misses : int; writes : int; corrupt : int }

let stats (t : t) =
  { hits = t.hits; misses = t.misses; writes = t.writes; corrupt = t.corrupt }

let fold_entries t f init =
  match Sys.readdir t.dir with
  | exception Sys_error _ -> init
  | kinds ->
    Array.fold_left
      (fun acc kind ->
        let sub = Filename.concat t.dir kind in
        (* The quarantine morgue is not part of the cache: its blobs
           are already-dead evidence and must not count as entries,
           bytes, or [clear] victims. *)
        if kind = quarantine_dirname || not (Sys.is_directory sub) then acc
        else
          Array.fold_left
            (fun acc name -> f acc (Filename.concat sub name))
            acc (Sys.readdir sub))
      init kinds

let entry_count t = fold_entries t (fun n _ -> n + 1) 0

let total_bytes t =
  fold_entries t
    (fun n path ->
      match Unix.stat path with
      | { Unix.st_size; _ } -> n + st_size
      | exception Unix.Unix_error _ -> n)
    0

let clear t =
  fold_entries t
    (fun n path ->
      match Sys.remove path with
      | () -> n + 1
      | exception Sys_error _ -> n)
    0

let publish (t : t) registry =
  let count name v =
    Telemetry.Registry.add (Telemetry.Registry.counter registry name) v
  in
  count "store/hit" t.hits;
  count "store/miss" t.misses;
  count "store/write" t.writes;
  count "store/corrupt" t.corrupt;
  Telemetry.Registry.set_max
    (Telemetry.Registry.gauge registry "store/bytes")
    (total_bytes t)
