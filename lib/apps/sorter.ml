module Cl = Clouds.Cluster
module Om = Clouds.Object_manager
module V = Clouds.Value
module Mem = Clouds.Memory

let compare_cost_ns = 4000 (* compare + exchange on a Sun-3 class CPU *)

let header = 64

let read_ints ctx lo hi =
  let m = hi - lo in
  let b = Mem.read ctx.Clouds.Ctx.mem (header + (8 * lo)) ~len:(8 * m) in
  Array.init m (fun i -> Int64.to_int (Bytes.get_int64_le b (8 * i)))

let write_ints ctx lo arr =
  let b = Bytes.create (8 * Array.length arr) in
  Array.iteri (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.of_int v)) arr;
  Mem.write ctx.Clouds.Ctx.mem (header + (8 * lo)) b

let log2 m =
  let rec go acc m = if m <= 1 then acc else go (acc + 1) (m / 2) in
  go 0 m

let charge_compares ctx m = ctx.Clouds.Ctx.compute (compare_cost_ns * m)

let entries =
  [
    Clouds.Obj_class.entry "fill" (fun ctx arg ->
        let n_v, seed_v = V.to_pair arg in
        let n = V.to_int n_v and seed = V.to_int seed_v in
        Mem.set_int ctx.Clouds.Ctx.mem 0 n;
        let arr = Array.make n 0 in
        let x = ref (seed lor 1) in
        for i = 0 to n - 1 do
          (* deterministic LCG *)
          x := (!x * 2862933555777941757) + 3037000493;
          arr.(i) <- abs (!x mod 1_000_000_007)
        done;
        write_ints ctx 0 arr;
        ctx.Clouds.Ctx.compute (200 * n);
        V.Unit);
    Clouds.Obj_class.entry "length" (fun ctx _ ->
        V.Int (Mem.get_int ctx.Clouds.Ctx.mem 0));
    Clouds.Obj_class.entry "get" (fun ctx arg ->
        let i = V.to_int arg in
        let b = Mem.read ctx.Clouds.Ctx.mem (header + (8 * i)) ~len:8 in
        V.Int (Int64.to_int (Bytes.get_int64_le b 0)));
    Clouds.Obj_class.entry "sort_range" (fun ctx arg ->
        let lo_v, hi_v = V.to_pair arg in
        let lo = V.to_int lo_v and hi = V.to_int hi_v in
        let arr = read_ints ctx lo hi in
        Array.sort Int.compare arr;
        write_ints ctx lo arr;
        let m = hi - lo in
        charge_compares ctx (m * max 1 (log2 m));
        V.Unit);
    Clouds.Obj_class.entry "merge_ranges" (fun ctx arg ->
        match V.to_list arg with
        | [ lo_v; mid_v; hi_v ] ->
            let lo = V.to_int lo_v
            and mid = V.to_int mid_v
            and hi = V.to_int hi_v in
            let left = read_ints ctx lo mid and right = read_ints ctx mid hi in
            let out = Array.make (hi - lo) 0 in
            let i = ref 0 and j = ref 0 in
            for k = 0 to hi - lo - 1 do
              if
                !i < Array.length left
                && (!j >= Array.length right || left.(!i) <= right.(!j))
              then begin
                out.(k) <- left.(!i);
                incr i
              end
              else begin
                out.(k) <- right.(!j);
                incr j
              end
            done;
            write_ints ctx lo out;
            charge_compares ctx (hi - lo);
            V.Unit
        | _ -> invalid_arg "merge_ranges");
    Clouds.Obj_class.entry "merge_kway" (fun ctx arg ->
        (* merge k sorted runs delimited by the boundary list into
           place with one pass over the data *)
        let bounds = List.map V.to_int (V.to_list arg) in
        (match bounds with
        | [] | [ _ ] -> ()
        | b0 :: _ ->
            let bounds = Array.of_list bounds in
            let k = Array.length bounds - 1 in
            let hi = bounds.(k) in
            let arr = read_ints ctx b0 hi in
            let out = Array.make (hi - b0) 0 in
            let idx = Array.init k (fun i -> bounds.(i) - b0) in
            let stop = Array.init k (fun i -> bounds.(i + 1) - b0) in
            for slot = 0 to hi - b0 - 1 do
              let best = ref (-1) in
              for r = 0 to k - 1 do
                if
                  idx.(r) < stop.(r)
                  && (!best < 0 || arr.(idx.(r)) < arr.(idx.(!best)))
                then best := r
              done;
              out.(slot) <- arr.(idx.(!best));
              idx.(!best) <- idx.(!best) + 1
            done;
            write_ints ctx b0 out;
            charge_compares ctx ((hi - b0) * max 1 (log2 k)));
        V.Unit);
    Clouds.Obj_class.entry "is_sorted" (fun ctx _ ->
        let n = Mem.get_int ctx.Clouds.Ctx.mem 0 in
        let arr = read_ints ctx 0 n in
        charge_compares ctx n;
        let ok = ref true in
        for i = 0 to n - 2 do
          if arr.(i) > arr.(i + 1) then ok := false
        done;
        V.Bool !ok);
    Clouds.Obj_class.entry "checksum" (fun ctx _ ->
        let n = Mem.get_int ctx.Clouds.Ctx.mem 0 in
        let arr = read_ints ctx 0 n in
        charge_compares ctx n;
        V.Int (Array.fold_left (fun acc x -> (acc + x) land max_int) 0 arr));
  ]

let class_name_for capacity = Printf.sprintf "sorter-%d" capacity

let register om ~capacity =
  let cl = Om.cluster om in
  let name = class_name_for capacity in
  if Cl.find_class cl name = None then begin
    let data_pages = Ra.Page.count_for (header + (8 * capacity)) in
    Cl.register_class cl
      (Clouds.Obj_class.define ~name ~data_pages ~heap_pages:1 entries)
  end;
  name

let create om ?consistency ~capacity () =
  let name = register om ~capacity in
  Om.create_object om ?consistency ~class_name:name V.Unit

let fill om ~obj ~n ~seed =
  match Om.call om obj "fill" (V.Pair (V.Int n, V.Int seed)) with
  | V.Unit -> ()
  | _ -> failwith "Sorter.fill"

let checksum om ~obj = V.to_int (Om.call om obj "checksum" V.Unit)
let is_sorted om ~obj = V.to_bool (Om.call om obj "is_sorted" V.Unit)

type run = {
  workers : int;
  elapsed_ms : float;
  sort_ms : float;
  merge_ms : float;
  remote_page_moves : int;
}

let pages_served cl =
  Array.fold_left
    (fun acc s ->
      acc + Obs.Registry.count (Dsm.Dsm_server.metrics s) "dsm/pages_served")
    0 cl.Cl.servers

(* Split [0, n) into [workers] contiguous chunks. *)
let chunks n workers =
  let base = n / workers and extra = n mod workers in
  let rec go i lo acc =
    if i = workers then List.rev acc
    else begin
      let len = base + (if i < extra then 1 else 0) in
      go (i + 1) (lo + len) ((lo, lo + len) :: acc)
    end
  in
  go 0 0 []

let distributed_sort om ~obj ~workers =
  if workers < 1 then invalid_arg "distributed_sort: workers must be positive";
  let cl = Om.cluster om in
  let ncompute = Array.length cl.Cl.compute_nodes in
  let node_for i = cl.Cl.compute_nodes.(i mod ncompute).Ra.Node.id in
  let n = V.to_int (Om.call om obj "length" V.Unit) in
  let served0 = pages_served cl in
  let t0 = Sim.now () in
  (* phase 1: parallel range sorts, one thread per worker *)
  let sort_threads =
    List.mapi
      (fun i (lo, hi) ->
        Clouds.Thread.start om ~on:(node_for i) ~obj ~entry:"sort_range"
          (V.Pair (V.Int lo, V.Int hi)))
      (chunks n workers)
  in
  List.iter (fun th -> ignore (Clouds.Thread.join th)) sort_threads;
  let t_sorted = Sim.now () in
  (* phase 2: one k-way merge pass over the whole array *)
  (if workers > 1 then begin
     let boundaries =
       V.List
         (List.map (fun (lo, _) -> V.Int lo) (chunks n workers) @ [ V.Int n ])
     in
     let th =
       Clouds.Thread.start om ~on:(node_for 0) ~obj ~entry:"merge_kway"
         boundaries
     in
     ignore (Clouds.Thread.join th)
   end);
  let t1 = Sim.now () in
  {
    workers;
    elapsed_ms = Sim.Time.to_ms_f (Sim.Time.diff t1 t0);
    sort_ms = Sim.Time.to_ms_f (Sim.Time.diff t_sorted t0);
    merge_ms = Sim.Time.to_ms_f (Sim.Time.diff t1 t_sorted);
    remote_page_moves = pages_served cl - served0;
  }
