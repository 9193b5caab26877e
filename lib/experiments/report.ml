module J = Obs.Export

(* A value as one text cell: integer-valued numbers as integers,
   others to about three significant digits below 100. *)
let rec cell = function
  | J.Null -> "-"
  | J.Bool b -> string_of_bool b
  | J.Str s -> s
  | J.Num v when Float.is_integer v || not (Float.is_finite v) ->
      J.to_string (J.Num v)
  | J.Num v when Float.abs v >= 100.0 -> Printf.sprintf "%.1f" v
  | J.Num v when Float.abs v >= 1.0 -> Printf.sprintf "%.2f" v
  | J.Num v -> Printf.sprintf "%.3f" v
  | J.Arr l -> "[" ^ String.concat ", " (List.map cell l) ^ "]"
  | J.Obj _ as v -> J.to_string v

(* The members that label an element's row, in preference order. *)
let label_keys = [ "label"; "arm"; "scenario" ]

let label_of i ms =
  List.find_map
    (fun k -> match List.assoc_opt k ms with Some (J.Str s) -> Some s | _ -> None)
    label_keys
  |> Option.value ~default:(Printf.sprintf "[%d]" i)

(* The tables [json] lays out, each a header and its rows of cells: a
   run of scalar members (nested objects flattened into it), or one
   array of objects. *)
let tables ~paper json =
  let paper_of k = Option.value (List.assoc_opt k paper) ~default:"-" in
  let scalars = ref [] and out = ref [] in
  let close () =
    if !scalars <> [] then
      out :=
        ( (if paper = [] then [ "quantity"; "measured" ]
           else [ "quantity"; "paper"; "measured" ]),
          List.rev !scalars )
        :: !out;
    scalars := []
  in
  let table name elems =
    let keys =
      List.fold_left
        (fun acc ms ->
          acc
          @ List.filter_map
              (fun (k, _) ->
                if List.mem k acc || List.mem k label_keys then None else Some k)
              ms)
        [] elems
    in
    let paper_row =
      if List.exists (fun k -> List.mem_assoc k paper) keys then
        [ "paper" :: List.map paper_of keys ]
      else []
    in
    let row i ms =
      label_of i ms
      :: List.map (fun k -> Option.fold ~none:"" ~some:cell (List.assoc_opt k ms)) keys
    in
    close ();
    out := (name :: keys, paper_row @ List.mapi row elems) :: !out
  in
  let rec walk prefix =
    List.iter (fun (k, v) ->
        let name = prefix ^ k in
        match v with
        | J.Obj ms -> walk (name ^ ".") ms
        | J.Arr (_ :: _ as l) when List.for_all (function J.Obj _ -> true | _ -> false) l ->
            table name (List.map (function J.Obj ms -> ms | _ -> []) l)
        | _ ->
            scalars :=
              (if paper = [] then [ name; cell v ] else [ name; paper_of k; cell v ])
              :: !scalars)
  in
  walk "" (match json with J.Obj ms -> ms | v -> [ ("value", v) ]);
  close ();
  List.rev !out

let render ~title ~paper ~host json =
  let b = Buffer.create 1024 in
  Printf.bprintf b "== %s ==\n" title;
  List.iter
    (fun (header, rows) ->
      let widths =
        List.fold_left
          (List.map2 (fun w c -> max w (String.length c)))
          (List.map String.length header)
          rows
      in
      let line row =
        (* labels read left to right, figures line up on the right *)
        List.iteri
          (fun i (w, c) ->
            if i = 0 then Printf.bprintf b "  %-*s" w c
            else Printf.bprintf b "  %*s" w c)
          (List.combine widths row);
        Option.iter (Printf.bprintf b "  %s") (List.assoc_opt (List.hd row) host);
        Buffer.add_char b '\n'
      in
      List.iter line (header :: rows))
    (tables ~paper json);
  Buffer.contents b
