type point = {
  workers : int;
  total_ms : float;
  sort_ms : float;
  merge_ms : float;
  speedup : float;
  page_moves : int;
}

type result = { elements : int; points : point list }

let run ?(elements = 16_384) ?(worker_counts = [ 1; 2; 4; 8 ]) () =
  Sim.exec (fun () ->
      let eng = Sim.engine () in
      let sys = Clouds.boot eng ~compute:8 ~data:1 ~workstations:0 () in
      let base = ref 0.0 in
      let points =
        List.map
          (fun workers ->
            let obj = Apps.Sorter.create sys.Clouds.om ~capacity:elements () in
            Apps.Sorter.fill sys.Clouds.om ~obj ~n:elements ~seed:42;
            let sum = Apps.Sorter.checksum sys.Clouds.om ~obj in
            let r = Apps.Sorter.distributed_sort sys.Clouds.om ~obj ~workers in
            assert (Apps.Sorter.is_sorted sys.Clouds.om ~obj);
            assert (Apps.Sorter.checksum sys.Clouds.om ~obj = sum);
            if !base = 0.0 then base := r.Apps.Sorter.elapsed_ms;
            {
              workers;
              total_ms = r.Apps.Sorter.elapsed_ms;
              sort_ms = r.Apps.Sorter.sort_ms;
              merge_ms = r.Apps.Sorter.merge_ms;
              speedup = !base /. r.Apps.Sorter.elapsed_ms;
              page_moves = r.Apps.Sorter.remote_page_moves;
            })
          worker_counts
      in
      { elements; points })

let to_json (r : result) =
  let open Obs.Export in
  let point p =
    Obj
      [
        ("workers", int p.workers); ("total_ms", Num p.total_ms);
        ("speedup", Num p.speedup); ("page_moves", int p.page_moves);
        ("sort_ms", Num p.sort_ms); ("merge_ms", Num p.merge_ms);
      ]
  in
  Obj
    [ ("elements", int r.elements); ("points", Arr (List.map point r.points)) ]
