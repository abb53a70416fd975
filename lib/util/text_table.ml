type align = Left | Right

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render ?aligns ~header rows =
  let ncols =
    List.fold_left (fun acc r -> max acc (List.length r)) (List.length header)
      rows
  in
  let fill_row r =
    r @ List.init (ncols - List.length r) (fun _ -> "")
  in
  let header = fill_row header in
  let rows = List.map fill_row rows in
  let aligns =
    match aligns with
    | Some a when List.length a >= ncols -> Array.of_list a
    | _ -> Array.init ncols (fun i -> if i = 0 then Left else Right)
  in
  let widths = Array.make ncols 0 in
  List.iter
    (fun r ->
      List.iteri (fun i cell -> widths.(i) <- max widths.(i) (String.length cell)) r)
    (header :: rows);
  let line r =
    List.mapi (fun i cell -> pad aligns.(i) widths.(i) cell) r
    |> String.concat "  "
  in
  let rule =
    Array.to_list widths
    |> List.map (fun w -> String.make w '-')
    |> String.concat "  "
  in
  String.concat "\n" (line header :: rule :: List.map line rows)

let render_kv kvs =
  let width =
    List.fold_left (fun acc (k, _) -> max acc (String.length k)) 0 kvs
  in
  kvs
  |> List.map (fun (k, v) -> Printf.sprintf "%s  %s" (pad Left width k) v)
  |> String.concat "\n"

let bar_chart ?(width = 40) rows =
  let label_w =
    List.fold_left (fun acc (l, _) -> max acc (String.length l)) 0 rows
  in
  let peak =
    List.fold_left (fun acc (_, v) -> Float.max acc (Float.abs v)) 0.0 rows
  in
  let bar v =
    if peak <= 0.0 then ""
    else begin
      let n =
        int_of_float (Float.round (Float.abs v /. peak *. float_of_int width))
      in
      let block = String.concat "" (List.init n (fun _ -> "\xe2\x96\x88")) in
      if v < 0.0 then "-" ^ block else block
    end
  in
  rows
  |> List.map (fun (l, v) ->
         Printf.sprintf "%s  %s %s" (pad Left label_w l) (bar v)
           (Printf.sprintf "%.1f%%" (100.0 *. v)))
  |> String.concat "\n"
