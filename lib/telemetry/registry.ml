type counter = { mutable c : int }
type gauge = { mutable g : int }

let num_buckets = 64

type histogram = {
  mutable n : int;
  mutable sum : int;
  mutable hmax : int;
  buckets : int array; (* power-of-two buckets; see bucket_of *)
}

type metric =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram

type t = { tbl : (string, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 64 }
let is_empty t = Hashtbl.length t.tbl = 0

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let get_or_create t name ~make ~cast =
  match Hashtbl.find_opt t.tbl name with
  | Some m -> (
    match cast m with
    | Some v -> v
    | None ->
      invalid_arg
        (Printf.sprintf "Telemetry.Registry: %S already bound as a %s" name
           (kind_name m)))
  | None ->
    let m, v = make () in
    Hashtbl.replace t.tbl name m;
    v

let counter t name =
  get_or_create t name
    ~make:(fun () ->
      let c = { c = 0 } in
      (Counter c, c))
    ~cast:(function Counter c -> Some c | _ -> None)

let incr c = c.c <- c.c + 1
let add c n = c.c <- c.c + n
let counter_value c = c.c

let gauge t name =
  get_or_create t name
    ~make:(fun () ->
      let g = { g = 0 } in
      (Gauge g, g))
    ~cast:(function Gauge g -> Some g | _ -> None)

let set g v = g.g <- v
let set_max g v = if v > g.g then g.g <- v
let gauge_value g = g.g

let histogram t name =
  get_or_create t name
    ~make:(fun () ->
      let h = { n = 0; sum = 0; hmax = 0; buckets = Array.make num_buckets 0 } in
      (Histogram h, h))
    ~cast:(function Histogram h -> Some h | _ -> None)

(* Bucket index = bit width of v: v <= 0 -> 0, otherwise bucket b holds
   [2^(b-1), 2^b - 1].  Constant number of shift/test steps. *)
let bucket_of v =
  if v <= 0 then 0
  else begin
    let v = ref v in
    let b = ref 0 in
    if !v lsr 32 <> 0 then begin b := !b + 32; v := !v lsr 32 end;
    if !v lsr 16 <> 0 then begin b := !b + 16; v := !v lsr 16 end;
    if !v lsr 8 <> 0 then begin b := !b + 8; v := !v lsr 8 end;
    if !v lsr 4 <> 0 then begin b := !b + 4; v := !v lsr 4 end;
    if !v lsr 2 <> 0 then begin b := !b + 2; v := !v lsr 2 end;
    if !v lsr 1 <> 0 then begin b := !b + 1 end;
    min (num_buckets - 1) (!b + 1)
  end

let observe h v =
  h.n <- h.n + 1;
  h.sum <- h.sum + v;
  if v > h.hmax then h.hmax <- v;
  let b = h.buckets in
  let i = bucket_of v in
  b.(i) <- b.(i) + 1

let hist_count h = h.n
let hist_sum h = h.sum
let hist_max h = h.hmax

let quantile h q =
  if h.n = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int h.n)) in
      if r < 1 then 1 else if r > h.n then h.n else r
    in
    let cum = ref 0 in
    let res = ref h.hmax in
    (try
       for b = 0 to num_buckets - 1 do
         cum := !cum + h.buckets.(b);
         if !cum >= rank then begin
           res := (if b = 0 then 0 else (1 lsl b) - 1);
           raise Exit
         end
       done
     with Exit -> ());
    min !res h.hmax
  end

let merge_into ~into src =
  Hashtbl.iter
    (fun name m ->
      match m with
      | Counter c -> add (counter into name) c.c
      | Gauge g -> set_max (gauge into name) g.g
      | Histogram h ->
        let dst = histogram into name in
        dst.n <- dst.n + h.n;
        dst.sum <- dst.sum + h.sum;
        if h.hmax > dst.hmax then dst.hmax <- h.hmax;
        for b = 0 to num_buckets - 1 do
          dst.buckets.(b) <- dst.buckets.(b) + h.buckets.(b)
        done)
    src.tbl

type value =
  | Counter_v of int
  | Gauge_v of int
  | Histogram_v of {
      count : int;
      sum : int;
      max : int;
      p50 : int;
      p90 : int;
      p99 : int;
    }

let snapshot t =
  Hashtbl.fold
    (fun name m acc ->
      let v =
        match m with
        | Counter c -> Counter_v c.c
        | Gauge g -> Gauge_v g.g
        | Histogram h ->
          Histogram_v
            {
              count = h.n;
              sum = h.sum;
              max = h.hmax;
              p50 = quantile h 0.50;
              p90 = quantile h 0.90;
              p99 = quantile h 0.99;
            }
      in
      (name, v) :: acc)
    t.tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let to_json t =
  let snap = snapshot t in
  let section pred =
    let fields =
      List.filter_map
        (fun (name, v) ->
          match pred v with
          | Some payload ->
            Some
              (Printf.sprintf "\"%s\":%s" (Util.Json.escape_string name)
                 payload)
          | None -> None)
        snap
    in
    "{" ^ String.concat "," fields ^ "}"
  in
  let counters =
    section (function Counter_v c -> Some (string_of_int c) | _ -> None)
  in
  let gauges =
    section (function Gauge_v g -> Some (string_of_int g) | _ -> None)
  in
  let hists =
    section (function
      | Histogram_v { count; sum; max; p50; p90; p99 } ->
        Some
          (Printf.sprintf
             "{\"count\":%d,\"sum\":%d,\"max\":%d,\"p50\":%d,\"p90\":%d,\
              \"p99\":%d}"
             count sum max p50 p90 p99)
      | _ -> None)
  in
  Printf.sprintf "{\"counters\":%s,\"gauges\":%s,\"histograms\":%s}" counters
    gauges hists

let render t =
  let rows =
    List.map
      (fun (name, v) ->
        ( name,
          match v with
          | Counter_v c -> string_of_int c
          | Gauge_v g -> string_of_int g
          | Histogram_v { count; max; p50; p90; p99; _ } ->
            Printf.sprintf "n=%d p50=%d p90=%d p99=%d max=%d" count p50 p90
              p99 max ))
      (snapshot t)
  in
  if rows = [] then "(empty registry)\n" else Util.Text_table.render_kv rows
