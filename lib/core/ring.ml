(* Consistent-hash ring over data-server addresses, with virtual
   nodes.  Placement must be a pure function of the member set: two
   nodes that build a ring from the same membership view agree on
   every owner without exchanging messages, and a run re-executed from
   the same seed reproduces the same layout.  All hashing therefore
   avoids [Hashtbl.hash] (whose value is unspecified across versions)
   in favour of explicit mixers. *)

type t = {
  members : Net.Address.t array; (* sorted, distinct *)
  points : int array; (* sorted ring positions, one per vnode *)
  owners : Net.Address.t array; (* owners.(i) owns arc ending at points.(i) *)
}

(* splitmix-style finalizer; multiplier constants chosen to fit in
   OCaml's 63-bit native int (anything >= 2^62 would be truncated) *)
let mix x =
  let x = x land max_int in
  let x = x lxor (x lsr 31) in
  let x = x * 0x2545F4914F6CDD1D land max_int in
  let x = x lxor (x lsr 29) in
  let x = x * 0x27BB2EE687B0B0FD land max_int in
  x lxor (x lsr 32)

let key_of_int = mix

let key_of_string s =
  (* FNV-1a over bytes (offset basis truncated to 62 bits so the
     literal fits a native int), then finalized *)
  let h = ref 0x3BF29CE484222325 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x100000001B3 land max_int)
    s;
  mix !h

let key_of_sysname (s : Ra.Sysname.t) =
  mix ((s.node * 0x1000003) lxor s.local)

let point_of ~addr ~vnode = mix ((addr lsl 20) lxor (vnode * 0x9E3779B1))

(* virtual nodes per member: enough to smooth the arc distribution *)
let vnodes = 64

let make members =
  let members =
    List.sort_uniq Int.compare members |> Array.of_list
  in
  if Array.length members = 0 then invalid_arg "Ring.make: no members";
  let n = Array.length members * vnodes in
  let entries = Array.make n (0, 0) in
  let i = ref 0 in
  Array.iter
    (fun addr ->
      for v = 0 to vnodes - 1 do
        entries.(!i) <- (point_of ~addr ~vnode:v, addr);
        incr i
      done)
    members;
  (* ties on point broken by address so the layout is total order *)
  Array.sort compare entries;
  { members; points = Array.map fst entries; owners = Array.map snd entries }

let members t = Array.to_list t.members

(* first ring position >= key, wrapping past the top back to slot 0 *)
let slot_of t key =
  let n = Array.length t.points in
  if key > t.points.(n - 1) then 0
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    (* invariant: points.(hi) >= key; points below lo are < key *)
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.points.(mid) >= key then hi := mid else lo := mid + 1
    done;
    !lo
  end

let owner t key = t.owners.(slot_of t key)
let owner_of_string t s = owner t (key_of_string s)
let owner_of_sysname t s = owner t (key_of_sysname s)

(* distinct owners in arc order starting at the key's slot: the
   preference list used when the primary owner is unusable *)
let successors t key =
  let n = Array.length t.points in
  let start = slot_of t key in
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let i = ref 0 in
  while !i < n && Hashtbl.length seen < Array.length t.members do
    let a = t.owners.((start + !i) mod n) in
    if not (Hashtbl.mem seen a) then begin
      Hashtbl.add seen a ();
      acc := a :: !acc
    end;
    incr i
  done;
  List.rev !acc

let moved ~before ~after key = owner before key <> owner after key
