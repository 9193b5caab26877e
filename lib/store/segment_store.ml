type t = {
  pages : (Ra.Sysname.t * int, bytes) Hashtbl.t;
  lsns : (Ra.Sysname.t * int, int) Hashtbl.t;
      (* page-LSN: the log sequence number of the commit record whose
         write produced this page image; absent (0) for pages written
         outside the commit path.  Recovery's redo pass uses it to
         replay a committed write at most once. *)
  sizes : int Ra.Sysname.Table.t;
}

let create () =
  {
    pages = Hashtbl.create 256;
    lsns = Hashtbl.create 256;
    sizes = Ra.Sysname.Table.create 32;
  }

let create_segment t seg ~size =
  if Ra.Sysname.Table.mem t.sizes seg then
    invalid_arg "Segment_store.create_segment: exists";
  if size < 0 then invalid_arg "Segment_store.create_segment: negative size";
  Ra.Sysname.Table.replace t.sizes seg size

let delete_segment t seg =
  Ra.Sysname.Table.remove t.sizes seg;
  let keys =
    Hashtbl.fold
      (fun (s, p) _ acc ->
        if Ra.Sysname.equal s seg then (s, p) :: acc else acc)
      t.pages []
  in
  List.iter
    (fun k ->
      Hashtbl.remove t.pages k;
      Hashtbl.remove t.lsns k)
    keys

let exists t seg = Ra.Sysname.Table.mem t.sizes seg

let size t seg =
  match Ra.Sysname.Table.find_opt t.sizes seg with
  | Some s -> s
  | None -> raise (Ra.Partition.No_segment seg)

let read_page t seg page =
  if not (exists t seg) then raise (Ra.Partition.No_segment seg);
  match Hashtbl.find_opt t.pages (seg, page) with
  | Some data -> Ra.Partition.Data data
  | None -> Ra.Partition.Zeroed

let write_page ?lsn t seg page data =
  if not (exists t seg) then raise (Ra.Partition.No_segment seg);
  Hashtbl.replace t.pages (seg, page) data;
  match lsn with
  | Some l -> Hashtbl.replace t.lsns (seg, page) l
  | None -> ()

type spans = (int * bytes) list

let apply_spans ?lsn t seg page spans =
  let img = Ra.Page.zero () in
  (match read_page t seg page with
  | Ra.Partition.Data b ->
      Bytes.blit b 0 img 0 (min (Bytes.length b) Ra.Page.size)
  | Ra.Partition.Zeroed -> ());
  List.iter
    (fun (off, b) ->
      let len = min (Bytes.length b) (Ra.Page.size - off) in
      if off >= 0 && len > 0 then Bytes.blit b 0 img off len)
    spans;
  write_page ?lsn t seg page img;
  img

let clear_page t seg page =
  Hashtbl.remove t.pages (seg, page);
  Hashtbl.remove t.lsns (seg, page)

let page_lsn t seg page =
  match Hashtbl.find_opt t.lsns (seg, page) with Some l -> l | None -> 0

let local_partition t =
  {
    Ra.Partition.fetch = (fun ~seg ~page ~mode:_ -> read_page t seg page);
    writeback = (fun ~seg ~page spans -> ignore (apply_spans t seg page spans));
  }
