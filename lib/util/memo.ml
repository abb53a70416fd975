type 'v entry = { value : 'v; mutable stamp : int }

type ('k, 'v) t = {
  lock : Mutex.t;
  table : ('k, 'v entry) Hashtbl.t;
  capacity : int option;
  mutable clock : int; (* LRU stamps *)
  mutable inserts : int;
  mutable evictions : int;
}

let create ?capacity () =
  {
    lock = Mutex.create ();
    table = Hashtbl.create 16;
    capacity = Option.map (max 1) capacity;
    clock = 0;
    inserts = 0;
    evictions = 0;
  }

let locked t f = Mutex.protect t.lock f

let touch t e =
  t.clock <- t.clock + 1;
  e.stamp <- t.clock

(* Under the lock. *)
let lookup t k =
  match Hashtbl.find_opt t.table k with
  | Some e ->
    touch t e;
    Some e.value
  | None -> None

let evict_lru t =
  let victim =
    Hashtbl.fold
      (fun k e acc ->
        match acc with
        | Some (_, s) when s <= e.stamp -> acc
        | _ -> Some (k, e.stamp))
      t.table None
  in
  Option.iter
    (fun (k, _) ->
      Hashtbl.remove t.table k;
      t.evictions <- t.evictions + 1)
    victim

let find_opt t k = locked t (fun () -> lookup t k)

let find_or_add t k compute =
  match find_opt t k with
  | Some v -> v
  | None ->
    let v = compute () in
    locked t (fun () ->
        match lookup t k with
        | Some winner -> winner
        | None ->
          let e = { value = v; stamp = 0 } in
          touch t e;
          Hashtbl.replace t.table k e;
          t.inserts <- t.inserts + 1;
          (match t.capacity with
          | Some cap ->
            while Hashtbl.length t.table > cap do
              evict_lru t
            done
          | None -> ());
          v)

let fold f t acc =
  List.fold_left
    (fun acc (k, v) -> f k v acc)
    acc
    (locked t (fun () ->
         Hashtbl.fold (fun k e l -> (k, e.value) :: l) t.table []))

let length t = locked t (fun () -> Hashtbl.length t.table)
let inserts t = locked t (fun () -> t.inserts)
let evictions t = locked t (fun () -> t.evictions)
