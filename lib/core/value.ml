type t =
  | Unit
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Pair of t * t
  | List of t list

let rec size = function
  | Unit -> 1
  | Bool _ -> 2
  | Int _ -> 9
  | Float _ -> 9
  | Str s -> 5 + String.length s
  | Pair (a, b) -> 1 + size a + size b
  | List l -> 5 + List.fold_left (fun acc v -> acc + size v) 0 l

let rec write buf v =
  match v with
  | Unit -> Buffer.add_char buf '\000'
  | Bool b ->
      Buffer.add_char buf '\001';
      Buffer.add_char buf (if b then '\001' else '\000')
  | Int n ->
      Buffer.add_char buf '\002';
      Buffer.add_int64_le buf (Int64.of_int n)
  | Float f ->
      Buffer.add_char buf '\003';
      Buffer.add_int64_le buf (Int64.bits_of_float f)
  | Str s ->
      Buffer.add_char buf '\004';
      Buffer.add_int32_le buf (Int32.of_int (String.length s));
      Buffer.add_string buf s
  | Pair (a, b) ->
      Buffer.add_char buf '\005';
      write buf a;
      write buf b
  | List l ->
      Buffer.add_char buf '\006';
      Buffer.add_int32_le buf (Int32.of_int (List.length l));
      List.iter (write buf) l

let encode v =
  let buf = Buffer.create 64 in
  write buf v;
  Buffer.to_bytes buf

let decode b =
  let pos = ref 0 in
  let byte () =
    if !pos >= Bytes.length b then invalid_arg "Value.decode: truncated";
    let c = Bytes.get b !pos in
    incr pos;
    c
  in
  let int64 () =
    if !pos + 8 > Bytes.length b then invalid_arg "Value.decode: truncated";
    let v = Bytes.get_int64_le b !pos in
    pos := !pos + 8;
    v
  in
  let int32 () =
    if !pos + 4 > Bytes.length b then invalid_arg "Value.decode: truncated";
    let v = Int32.to_int (Bytes.get_int32_le b !pos) in
    pos := !pos + 4;
    v
  in
  let rec go () =
    match byte () with
    | '\000' -> Unit
    | '\001' -> Bool (byte () = '\001')
    | '\002' -> Int (Int64.to_int (int64 ()))
    | '\003' -> Float (Int64.float_of_bits (int64 ()))
    | '\004' ->
        let n = int32 () in
        if n < 0 || !pos + n > Bytes.length b then
          invalid_arg "Value.decode: bad string length";
        let s = Bytes.sub_string b !pos n in
        pos := !pos + n;
        Str s
    | '\005' ->
        let a = go () in
        let b = go () in
        Pair (a, b)
    | '\006' ->
        let n = int32 () in
        if n < 0 then invalid_arg "Value.decode: bad list length";
        List (List.init n (fun _ -> go ()))
    | _ -> invalid_arg "Value.decode: bad tag"
  in
  let v = go () in
  if !pos <> Bytes.length b then invalid_arg "Value.decode: trailing bytes";
  v

let rec equal a b =
  match (a, b) with
  | Unit, Unit -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Float.equal x y
  | Str x, Str y -> String.equal x y
  | Pair (x1, x2), Pair (y1, y2) -> equal x1 y1 && equal x2 y2
  | List x, List y -> (
      try List.for_all2 equal x y with Invalid_argument _ -> false)
  | (Unit | Bool _ | Int _ | Float _ | Str _ | Pair _ | List _), _ -> false

let rec pp fmt = function
  | Unit -> Format.pp_print_string fmt "()"
  | Bool b -> Format.pp_print_bool fmt b
  | Int n -> Format.pp_print_int fmt n
  | Float f -> Format.pp_print_float fmt f
  | Str s -> Format.fprintf fmt "%S" s
  | Pair (a, b) -> Format.fprintf fmt "(%a, %a)" pp a pp b
  | List l ->
      Format.fprintf fmt "[%a]"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f "; ") pp)
        l

let to_int = function Int n -> n | _ -> invalid_arg "Value.to_int"
let to_string = function Str s -> s | _ -> invalid_arg "Value.to_string"
let to_bool = function Bool b -> b | _ -> invalid_arg "Value.to_bool"
let to_pair = function Pair (a, b) -> (a, b) | _ -> invalid_arg "Value.to_pair"
let to_list = function List l -> l | _ -> invalid_arg "Value.to_list"

let of_sysname s = Str (Ra.Sysname.to_string s)

let to_sysname = function
  | Str s -> (
      match Ra.Sysname.of_string s with
      | Some name -> name
      | None -> invalid_arg "Value.to_sysname: bad format")
  | _ -> invalid_arg "Value.to_sysname"
