module Cl = Clouds.Cluster
module Om = Clouds.Object_manager
module V = Clouds.Value
module Mem = Clouds.Memory

exception Lisp_error of string

(* ------------------------------------------------------------------ *)
(* Values.  Everything, including closures, is representable as text,
   which is what lets the whole global environment live in persistent
   object memory. *)

type sexp =
  | Int of int
  | Sym of string
  | Str of string
  | Nil
  | Pair of sexp * sexp
  | Closure of string list * sexp list * (string * sexp) list

let rec list_of = function
  | Nil -> []
  | Pair (a, rest) -> a :: list_of rest
  | _ -> raise (Lisp_error "improper list")

let rec of_list = function [] -> Nil | x :: rest -> Pair (x, of_list rest)

(* ------------------------------------------------------------------ *)
(* Printer *)

let rec print = function
  | Int n -> string_of_int n
  | Sym s -> s
  | Str s -> Printf.sprintf "%S" s
  | Nil -> "()"
  | Pair _ as p ->
      let rec items = function
        | Nil -> []
        | Pair (a, rest) -> print a :: items rest
        | other -> [ "." ; print other ]
      in
      "(" ^ String.concat " " (items p) ^ ")"
  | Closure (params, body, captured) ->
      print
        (of_list
           (Sym "#closure"
           :: of_list (List.map (fun p -> Sym p) params)
           :: of_list body
           :: [ of_list (List.map (fun (n, v) -> of_list [ Sym n; v ]) captured) ]))

(* ------------------------------------------------------------------ *)
(* Parser *)

let tokenize src =
  let tokens = ref [] in
  let n = String.length src in
  let i = ref 0 in
  while !i < n do
    (match src.[!i] with
    | ' ' | '\t' | '\n' | '\r' -> incr i
    | '(' | ')' | '\'' ->
        tokens := String.make 1 src.[!i] :: !tokens;
        incr i
    | '"' ->
        let j = ref (!i + 1) in
        let buf = Buffer.create 16 in
        while !j < n && src.[!j] <> '"' do
          Buffer.add_char buf src.[!j];
          incr j
        done;
        if !j >= n then raise (Lisp_error "unterminated string");
        tokens := ("\"" ^ Buffer.contents buf) :: !tokens;
        i := !j + 1
    | ';' ->
        (* comment to end of line *)
        while !i < n && src.[!i] <> '\n' do
          incr i
        done
    | _ ->
        let j = ref !i in
        while
          !j < n
          && not
               (match src.[!j] with
               | ' ' | '\t' | '\n' | '\r' | '(' | ')' | '\'' | '"' -> true
               | _ -> false)
        do
          incr j
        done;
        tokens := String.sub src !i (!j - !i) :: !tokens;
        i := !j);
  done;
  List.rev !tokens

let parse src =
  let rec one = function
    | [] -> raise (Lisp_error "unexpected end of input")
    | "(" :: rest -> many rest
    | ")" :: _ -> raise (Lisp_error "unexpected )")
    | "'" :: rest ->
        let v, rest = one rest in
        (of_list [ Sym "quote"; v ], rest)
    | tok :: rest ->
        let v =
          if String.length tok > 0 && tok.[0] = '"' then
            Str (String.sub tok 1 (String.length tok - 1))
          else
            match int_of_string_opt tok with
            | Some n -> Int n
            | None -> Sym tok
        in
        (v, rest)
  and many = function
    | ")" :: rest -> (Nil, rest)
    | "." :: rest -> (
        let v, rest = one rest in
        match rest with
        | ")" :: rest -> (v, rest)
        | _ -> raise (Lisp_error "malformed dotted pair"))
    | [] -> raise (Lisp_error "missing )")
    | tokens ->
        let v, rest = one tokens in
        let tail, rest = many rest in
        (Pair (v, tail), rest)
  in
  let rec all tokens =
    match tokens with
    | [] -> []
    | _ ->
        let v, rest = one tokens in
        v :: all rest
  in
  all (tokenize src)

(* The persisted global environment is itself parsed with [parse];
   closures round-trip through their #closure form. *)
let rec revive = function
  | Pair (Sym "#closure", Pair (params, Pair (body, Pair (captured, Nil)))) ->
      Closure
        ( List.map (function Sym s -> s | _ -> raise (Lisp_error "bad image")) (list_of params),
          List.map revive (list_of body),
          List.map
            (function
              | Pair (Sym n, Pair (v, Nil)) -> (n, revive v)
              | _ -> raise (Lisp_error "bad image"))
            (list_of captured) )
  | Pair (a, b) -> Pair (revive a, revive b)
  | other -> other

(* ------------------------------------------------------------------ *)
(* Evaluator *)

type interp = {
  mutable globals : (string * sexp) list;
  mutable dirty : bool;
  mutable steps : int;
  ctx : Clouds.Ctx.t;
}

let truthy = function Nil | Int 0 -> false | _ -> true

let int2 name f = function
  | [ Int a; Int b ] -> f a b
  | _ -> raise (Lisp_error (name ^ ": expects two integers"))

let rec lookup it frames name =
  match frames with
  | [] -> (
      match List.assoc_opt name it.globals with
      | Some v -> v
      | None -> raise (Lisp_error ("unbound symbol: " ^ name)))
  | frame :: rest -> (
      match List.assoc_opt name frame with
      | Some v -> v
      | None -> lookup it rest name)

let rec eval it frames expr =
  it.steps <- it.steps + 1;
  if it.steps > 200_000 then raise (Lisp_error "evaluation too long");
  match expr with
  | Int _ | Str _ | Nil | Closure _ -> expr
  | Sym name -> lookup it frames name
  | Pair (Sym "quote", Pair (v, Nil)) -> v
  | Pair (Sym "if", Pair (c, Pair (t, rest))) ->
      if truthy (eval it frames c) then eval it frames t
      else (match rest with Pair (e, Nil) -> eval it frames e | _ -> Nil)
  | Pair (Sym "define", Pair (Sym name, Pair (v, Nil))) ->
      let value = eval it frames v in
      it.globals <- (name, value) :: List.remove_assoc name it.globals;
      it.dirty <- true;
      Sym name
  | Pair (Sym "define", Pair (Pair (Sym name, params), body)) ->
      (* (define (f x y) body...) *)
      let params =
        List.map
          (function Sym s -> s | _ -> raise (Lisp_error "bad parameter"))
          (list_of params)
      in
      let value = Closure (params, list_of body, []) in
      it.globals <- (name, value) :: List.remove_assoc name it.globals;
      it.dirty <- true;
      Sym name
  | Pair (Sym "set!", Pair (Sym name, Pair (v, Nil))) ->
      if List.mem_assoc name it.globals then begin
        let value = eval it frames v in
        it.globals <- (name, value) :: List.remove_assoc name it.globals;
        it.dirty <- true;
        value
      end
      else raise (Lisp_error ("set!: unbound " ^ name))
  | Pair (Sym "lambda", Pair (params, body)) ->
      let params =
        List.map
          (function Sym s -> s | _ -> raise (Lisp_error "bad parameter"))
          (list_of params)
      in
      (* close over the current local frames by value *)
      Closure (params, list_of body, List.concat frames)
  | Pair (Sym "let", Pair (binds, body)) ->
      let frame =
        List.map
          (function
            | Pair (Sym n, Pair (v, Nil)) -> (n, eval it frames v)
            | _ -> raise (Lisp_error "bad let binding"))
          (list_of binds)
      in
      eval_body it (frame :: frames) (list_of body)
  | Pair (Sym "begin", body) -> eval_body it frames (list_of body)
  | Pair (Sym "and", args) ->
      let rec go = function
        | [] -> Int 1
        | [ last ] -> eval it frames last
        | a :: rest -> if truthy (eval it frames a) then go rest else Nil
      in
      go (list_of args)
  | Pair (Sym "or", args) ->
      let rec go = function
        | [] -> Nil
        | a :: rest ->
            let v = eval it frames a in
            if truthy v then v else go rest
      in
      go (list_of args)
  | Pair (f, args) ->
      let fn = eval it frames f in
      let args = List.map (eval it frames) (list_of args) in
      apply it fn args

and eval_body it frames = function
  | [] -> Nil
  | [ last ] -> eval it frames last
  | e :: rest ->
      ignore (eval it frames e);
      eval_body it frames rest

and apply it fn args =
  match fn with
  | Closure (params, body, captured) ->
      if List.length params <> List.length args then
        raise (Lisp_error "arity mismatch");
      let frame = List.combine params args in
      eval_body it [ frame; captured ] body
  | Sym name -> builtin it name args
  | _ -> raise (Lisp_error ("not a function: " ^ print fn))

and builtin it name args =
  let bool b = if b then Int 1 else Nil in
  match (name, args) with
  | "+", _ ->
      Int (List.fold_left (fun acc -> function Int n -> acc + n | _ -> raise (Lisp_error "+")) 0 args)
  | "*", _ ->
      Int (List.fold_left (fun acc -> function Int n -> acc * n | _ -> raise (Lisp_error "*")) 1 args)
  | "-", [ Int a ] -> Int (-a)
  | "-", _ -> Int (int2 "-" (fun a b -> a - b) args)
  | "/", _ ->
      Int (int2 "/" (fun a b -> if b = 0 then raise (Lisp_error "division by zero") else a / b) args)
  | "=", _ -> bool (int2 "=" (fun a b -> if a = b then 1 else 0) args = 1)
  | "<", _ -> bool (int2 "<" (fun a b -> if a < b then 1 else 0) args = 1)
  | ">", _ -> bool (int2 ">" (fun a b -> if a > b then 1 else 0) args = 1)
  | "<=", _ -> bool (int2 "<=" (fun a b -> if a <= b then 1 else 0) args = 1)
  | ">=", _ -> bool (int2 ">=" (fun a b -> if a >= b then 1 else 0) args = 1)
  | "cons", [ a; b ] -> Pair (a, b)
  | "car", [ Pair (a, _) ] -> a
  | "cdr", [ Pair (_, b) ] -> b
  | "list", _ -> of_list args
  | "null?", [ v ] -> bool (v = Nil)
  | "eq?", [ a; b ] -> bool (a = b)
  | "not", [ v ] -> bool (not (truthy v))
  | "length", [ v ] -> Int (List.length (list_of v))
  | "append", [ a; b ] -> of_list (list_of a @ list_of b)
  | "remote", [ Str target; Str expr ] -> (
      (* inter-environment operation: evaluate inside another Lisp
         environment object, anywhere in the cluster *)
      match Ra.Sysname.of_string target with
      | None -> raise (Lisp_error ("remote: bad sysname " ^ target))
      | Some obj -> (
          match
            it.ctx.Clouds.Ctx.invoke ~obj ~entry:"eval" (V.Str expr)
          with
          | V.Str result -> (
              match parse result with
              | [ v ] -> revive v
              | _ -> Str result)
          | _ -> raise (Lisp_error "remote: bad reply")))
  | _ ->
      raise (Lisp_error ("unknown function: " ^ name))

(* ------------------------------------------------------------------ *)
(* The persistent image: the global alist serialized at data[0]. *)

let builtin_names =
  [
    "+"; "-"; "*"; "/"; "="; "<"; ">"; "<="; ">="; "cons"; "car"; "cdr";
    "list"; "null?"; "eq?"; "not"; "length"; "append"; "remote";
  ]

let load_globals ctx =
  let image = Mem.get_string ctx.Clouds.Ctx.mem 0 in
  if String.equal image "" then
    List.map (fun n -> (n, Sym n)) builtin_names
  else
    match parse image with
    | [ alist ] ->
        List.map
          (function
            | Pair (Sym n, Pair (v, Nil)) -> (n, revive v)
            | _ -> raise (Lisp_error "corrupt image"))
          (list_of alist)
    | _ -> raise (Lisp_error "corrupt image")

let save_globals ctx globals =
  let image =
    print
      (of_list
         (List.map (fun (n, v) -> of_list [ Sym n; v ]) globals))
  in
  if Mem.string_footprint image > Mem.region_size ctx.Clouds.Ctx.mem Mem.Data
  then raise (Lisp_error "environment too large to persist");
  Mem.set_string ctx.Clouds.Ctx.mem 0 image

let eval_entry ctx arg =
  let src = V.to_string arg in
  let it = { globals = load_globals ctx; dirty = false; steps = 0; ctx } in
  let result =
    match parse src with
    | [] -> Nil
    | exprs -> eval_body it [] exprs
  in
  ctx.Clouds.Ctx.compute (Sim.Time.us (20 * min it.steps 10_000));
  if it.dirty then save_globals ctx it.globals;
  V.Str (print result)

let cls =
  Clouds.Obj_class.define ~name:"lisp-env" ~data_pages:8 ~heap_pages:1
    [
      Clouds.Obj_class.entry "eval" eval_entry;
      Clouds.Obj_class.entry ~label:Clouds.Obj_class.Gcp "eval_durable"
        eval_entry;
      Clouds.Obj_class.entry "bindings" (fun ctx _ ->
          let it = { globals = load_globals ctx; dirty = false; steps = 0; ctx } in
          V.List
            (List.filter_map
               (fun (n, _) ->
                 if List.mem n builtin_names then None else Some (V.Str n))
               it.globals));
    ]

let register om =
  let cl = Om.cluster om in
  if Cl.find_class cl "lisp-env" = None then Cl.register_class cl cls

let create om =
  register om;
  Om.create_object om ~class_name:"lisp-env" V.Unit

let eval om obj src = V.to_string (Om.call om obj "eval" (V.Str src))

let eval_durable om obj src =
  V.to_string (Om.call om obj "eval_durable" (V.Str src))

let bindings om obj =
  match Om.call om obj "bindings" V.Unit with
  | V.List l -> List.map V.to_string l
  | _ -> failwith "Lisp_env.bindings: bad reply"
