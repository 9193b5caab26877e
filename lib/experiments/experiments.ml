(** The paper's evaluation, reproduced.

    One module per table/figure of the reproduction (see DESIGN.md's
    experiment index): T1 kernel costs, T2 networking, T3 invocation,
    F1 distributed sort over DSM, F2 consistency costs, F3 PET
    resilience.  Each module runs a fresh simulated cluster and
    reports paper-vs-measured. *)

module T1_kernel = T1_kernel
module T2_network = T2_network
module T3_invocation = T3_invocation
module F1_sort = F1_sort
module F2_consistency = F2_consistency
module F3_pet = F3_pet
module Faults = Faults

module Membership = Membership_exp
(** [Membership_exp] rather than [Membership] on disk so the module
    does not shadow the membership library it drives. *)

module Ablations = Ablations
module Write_fault_fanout = Write_fault_fanout
module Page_batching = Page_batching
module Transport = Transport
module Load = Load
module Commit = Commit_exp
module Consistency = Consistency_exp
module Trace_run = Trace_run

(** {1 The registry}

    Every experiment the CLI and the bench know, in run order.  The
    quick (CI) and full sizes live here and nowhere else. *)

type output = {
  text : string;  (** the report the CLI prints *)
  json : Obs.Export.json;  (** the bench section; [Null] when unkeyed *)
  files : (string * string) list;  (** (path, contents) the CLI writes *)
}

type experiment = {
  id : string;
  aliases : string list;
  key : string option;  (** section key in the bench JSON *)
  default : bool;  (** part of the no-argument run *)
  run : quick:bool -> output;
}

let entry ?(aliases = []) ?key ?(default = true) id run =
  { id; aliases; key; default; run }

let output ?(json = Obs.Export.Null) ?(files = []) text = { text; json; files }
let tabled report to_json r = output (report r) ~json:(to_json r)

let lines f xs = String.concat "" (List.map (fun x -> "  " ^ f x ^ "\n") xs)

let all =
  [
    entry "t1" ~key:"t1_kernel" (fun ~quick ->
        T1_kernel.(
          tabled report to_json (run ~samples:(if quick then 20 else 100) ())));
    entry "t2" ~key:"t2_network" (fun ~quick ->
        T2_network.(
          tabled report to_json (run ~samples:(if quick then 10 else 50) ())));
    entry "t3" ~key:"t3_invocation" (fun ~quick ->
        T3_invocation.(
          tabled report to_json (run ~invocations:(if quick then 50 else 200) ())));
    entry "f1" ~key:"f1_sort" (fun ~quick ->
        F1_sort.(
          tabled report to_json (run ~elements:(if quick then 8_192 else 16_384) ())));
    entry "f2" ~key:"f2_consistency" (fun ~quick ->
        F2_consistency.(
          tabled report to_json (run ~samples:(if quick then 9 else 30) ())));
    entry "f3" ~key:"f3_pet" (fun ~quick ->
        F3_pet.(
          tabled report to_json (run ~trials:(if quick then 8 else 25) ())));
    entry "fanout" ~aliases:[ "wf" ] ~key:"write_fault_fanout" (fun ~quick ->
        Write_fault_fanout.(
          tabled report to_json
            (run ~sizes:(if quick then [ 1; 4; 8 ] else [ 1; 4; 8; 16 ]) ())));
    entry "batching" ~aliases:[ "pb" ] ~key:"page_batching" (fun ~quick ->
        Page_batching.(
          tabled report to_json
            (run ~flush_sizes:(if quick then [ 1; 16 ] else [ 1; 4; 16 ]) ())));
    entry "transport" ~aliases:[ "tr" ] ~key:"transport" (fun ~quick ->
        Transport.(
          tabled report to_json
            (run
               ~losses:(if quick then [ 0; 5 ] else [ 0; 1; 5; 10 ])
               ~sizes:
                 (if quick then [ 1400; 65536 ] else [ 1400; 8192; 65536 ])
               ~calls:(if quick then 3 else 5)
               ~invocations:(if quick then 20 else 50)
               ())));
    entry "faults" (fun ~quick:_ ->
        let outcomes = Faults.run_all () in
        output Faults.(report outcomes ^ lines summary outcomes));
    entry "membership" ~aliases:[ "mem" ] ~key:"membership" (fun ~quick ->
        Membership.(
          let outcomes =
            run
              ~arms:(if quick then quick_arms else full_arms)
              ~ops:(if quick then 32 else 48)
              ()
          in
          output
            (report outcomes ^ lines summary outcomes)
            ~json:(to_json outcomes)));
    entry "load" ~key:"load" (fun ~quick ->
        Load.(
          let points = run ~cells:(if quick then smoke_cells else full_cells) () in
          output
            (report points ^ lines summary points)
            ~json:(to_json points)));
    entry "commit" ~key:"commit" (fun ~quick ->
        Commit.(
          let points = run ~cells:(if quick then smoke_cells else full_cells) () in
          let o = run_crash () in
          output
            (report points ^ lines summary points ^ crash_report o
           ^ lines crash_summary [ o ])
            ~json:(to_json points o)));
    entry "consistency" ~aliases:[ "cons" ] ~key:"consistency" (fun ~quick ->
        let copysets = if quick then [ 2; 4 ] else [ 1; 2; 4; 8 ] in
        Consistency.(
          let r =
            run ~copysets
              ~elements:(if quick then 2_048 else 4_096)
              ~increments:(if quick then 16 else 32)
              ()
          in
          let cut k =
            Printf.sprintf "release cuts invalidation RPCs %.1fx at copyset %d"
              (inval_reduction r ~copyset:k) k
          in
          output (report r ^ lines cut copysets) ~json:(to_json r)));
    entry "ablations" ~aliases:[ "ab" ] (fun ~quick:_ ->
        output (Ablations.report ()));
    (* traced load cell: the Chrome trace and registry snapshot are
       validated before they are handed out for writing *)
    entry "trace" ~key:"obs" ~default:false (fun ~quick ->
        let cell =
          if quick then List.hd Load.smoke_cells else Trace_run.default_cell
        in
        let r = Trace_run.run ~cell () in
        let valid file = function
          | Ok v -> v
          | Error msg -> failwith (file ^ " failed validation: " ^ msg)
        in
        let events =
          valid "obs_trace.json" (Obs.Export.validate_chrome r.chrome)
        in
        ignore (valid "obs_metrics.json" (Obs.Export.parse r.registries_json));
        output
          (lines Load.summary [ r.point ]
          ^ r.report
          ^ Printf.sprintf
              "wrote obs_trace.json (%d events, Perfetto-loadable) and \
               obs_metrics.json\n"
              events)
          ~json:(Trace_run.to_json r)
          ~files:
            [
              ("obs_trace.json", r.chrome); ("obs_metrics.json", r.registries_json);
            ]);
    (* the roadmap-scale cell: 200 nodes, 1M invocations; latency in a
       streaming histogram so memory stays flat *)
    entry "load-xl" ~default:false (fun ~quick:_ ->
        output (lines Load.summary [ Load.run_cell Load.xl_cell ]));
  ]

let find id = List.find_opt (fun e -> e.id = id || List.mem id e.aliases) all
