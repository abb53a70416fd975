type t = { nodes : int list }

let length t = List.length t.nodes

module Iset = Set.Make (Int)

let is_ic dfg nodes =
  match nodes with
  | [] -> false
  | first :: _ ->
    (Graph.node dfg first).Graph.preds = []
    && begin
      let rec check seen = function
        | [] -> true
        | n :: rest ->
          let node = Graph.node dfg n in
          let preds_ok =
            List.for_all (fun p -> Iset.mem p seen) node.Graph.preds
          in
          let connected =
            Iset.is_empty seen
            || List.exists (fun p -> Iset.mem p seen) node.Graph.preds
          in
          (* First node passes [connected] vacuously via empty seen. *)
          preds_ok && connected && check (Iset.add n seen) rest
      in
      check Iset.empty nodes
    end

let enumerate ?(max_paths = 4096) ?(max_len = 4096) dfg =
  let results = ref [] in
  let count = ref 0 in
  let rec extend rev_path path_set last depth =
    if !count >= max_paths then ()
    else begin
      let eligible =
        if depth >= max_len then []
        else
          List.filter
            (fun s ->
              List.for_all
                (fun p -> Iset.mem p path_set)
                (Graph.node dfg s).Graph.preds)
            (Graph.node dfg last).Graph.succs
      in
      match eligible with
      | [] ->
        incr count;
        results := { nodes = List.rev rev_path } :: !results
      | succs ->
        List.iter
          (fun s ->
            extend (s :: rev_path) (Iset.add s path_set) s (depth + 1))
          succs
    end
  in
  List.iter (fun r -> extend [ r ] (Iset.singleton r) r 1) (Graph.roots dfg);
  List.rev !results

let criticality dfg t =
  match t.nodes with
  | [] -> 0.0
  | nodes ->
    let total =
      List.fold_left (fun acc n -> acc + Graph.fanout dfg n) 0 nodes
    in
    float_of_int total /. float_of_int (List.length nodes)

let spread dfg t =
  match t.nodes with
  | [] -> 0
  | first :: _ ->
    let last = List.fold_left (fun _ n -> n) first t.nodes in
    (Graph.node dfg last).Graph.event.Prog.Trace.seq
    - (Graph.node dfg first).Graph.event.Prog.Trace.seq

let prefixes t =
  let n = List.length t.nodes in
  let rec take k = function
    | [] -> []
    | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest
  in
  let rec go k acc =
    if k > n then List.rev acc
    else go (k + 1) ({ nodes = take k t.nodes } :: acc)
  in
  go 2 []

let enumerate_greedy ?(max_len = 4096) dfg =
  let n = Graph.size dfg in
  List.map
    (fun root ->
      let members = ref (Iset.singleton root) in
      let rec grow len =
        if len >= max_len then ()
        else begin
          (* lowest-indexed eligible consumer of any member *)
          let candidate = ref None in
          for i = n - 1 downto 0 do
            if not (Iset.mem i !members) then begin
              let node = Graph.node dfg i in
              let preds = node.Graph.preds in
              if
                preds <> []
                && List.for_all (fun p -> Iset.mem p !members) preds
              then candidate := Some i
            end
          done;
          match !candidate with
          | None -> ()
          | Some i ->
            members := Iset.add i !members;
            grow (len + 1)
        end
      in
      grow 1;
      { nodes = Iset.elements !members })
    (Graph.roots dfg)
