module Cl = Clouds.Cluster
module Om = Clouds.Object_manager
module V = Clouds.Value
module Mem = Clouds.Memory

exception Insufficient

let get ctx = Mem.get_int ctx.Clouds.Ctx.mem 0
let set ctx v = Mem.set_int ctx.Clouds.Ctx.mem 0 v

let deposit_entry ctx arg =
  let v = get ctx in
  ctx.Clouds.Ctx.compute (Sim.Time.us 150);
  set ctx (v + V.to_int arg);
  V.Int (v + V.to_int arg)

let withdraw_entry ctx arg =
  let amount = V.to_int arg in
  let v = get ctx in
  ctx.Clouds.Ctx.compute (Sim.Time.us 150);
  if v < amount then raise Insufficient;
  set ctx (v - amount);
  V.Int (v - amount)

let account_cls =
  Clouds.Obj_class.define ~name:"bank-account"
    ~constructor:(fun ctx arg -> set ctx (V.to_int arg))
    [
      Clouds.Obj_class.entry ~label:Clouds.Obj_class.Gcp "deposit" deposit_entry;
      Clouds.Obj_class.entry ~label:Clouds.Obj_class.Lcp "deposit_lcp"
        deposit_entry;
      Clouds.Obj_class.entry ~label:Clouds.Obj_class.S "deposit_s" deposit_entry;
      Clouds.Obj_class.entry ~label:Clouds.Obj_class.Gcp "withdraw"
        withdraw_entry;
      Clouds.Obj_class.entry ~label:Clouds.Obj_class.S "balance" (fun ctx _ ->
          V.Int (get ctx));
      (* unlabelled pieces used inside ambient transactions *)
      Clouds.Obj_class.entry ~label:Clouds.Obj_class.S "credit_in_txn"
        (fun ctx arg ->
          set ctx (get ctx + V.to_int arg);
          V.Unit);
      Clouds.Obj_class.entry ~label:Clouds.Obj_class.S "debit_in_txn"
        (fun ctx arg ->
          let amount = V.to_int arg in
          let v = get ctx in
          if v < amount then raise Insufficient;
          set ctx (v - amount);
          V.Unit);
    ]

let office_cls =
  Clouds.Obj_class.define ~name:"bank-office"
    [
      Clouds.Obj_class.entry ~label:Clouds.Obj_class.Gcp "transfer"
        (fun ctx arg ->
          match V.to_list arg with
          | [ from_v; to_v; amount ] ->
              ignore
                (ctx.Clouds.Ctx.invoke ~obj:(V.to_sysname from_v)
                   ~entry:"debit_in_txn" amount);
              ctx.Clouds.Ctx.compute (Sim.Time.us 300);
              ignore
                (ctx.Clouds.Ctx.invoke ~obj:(V.to_sysname to_v)
                   ~entry:"credit_in_txn" amount);
              V.Unit
          | _ -> invalid_arg "transfer");
    ]

let register om =
  let cl = Om.cluster om in
  if Cl.find_class cl "bank-account" = None then
    Cl.register_class cl account_cls;
  if Cl.find_class cl "bank-office" = None then Cl.register_class cl office_cls

let open_account om ?home ~balance () =
  register om;
  Om.create_object om ?home ~class_name:"bank-account"
    (V.Int balance)

let balance om acct = V.to_int (Om.call om acct "balance" V.Unit)

let deposit om ~mode acct amount =
  let entry =
    match mode with
    | Clouds.Obj_class.Gcp -> "deposit"
    | Clouds.Obj_class.Lcp -> "deposit_lcp"
    | Clouds.Obj_class.S -> "deposit_s"
  in
  V.to_int (Om.call om acct entry (V.Int amount))

let create_office om =
  register om;
  Om.create_object om ~class_name:"bank-office" V.Unit

let transfer om ~office ~from_acct ~to_acct amount =
  match
    Om.call om office "transfer"
      (V.List [ V.of_sysname from_acct; V.of_sysname to_acct; V.Int amount ])
  with
  | V.Unit -> ()
  | _ -> failwith "Bank.transfer: bad reply"
