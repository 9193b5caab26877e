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

module Report = Report
(** The one renderer every report goes through. *)

(** {1 The registry}

    Every experiment the CLI and the bench know, in run order.  The
    quick (CI) and full sizes live here and nowhere else. *)

type output = {
  text : string;  (** the report the CLI prints: [json], rendered *)
  json : Obs.Export.json;  (** the bench section, when the entry is keyed *)
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

(* Every report is its JSON value through the one renderer; [paper]
   pairs a member with the paper's figure for it, and [host] pairs a
   row with its host-measured suffix. *)
let output ~title ?(paper = []) ?(host = []) ?(files = []) json =
  { text = Report.render ~title ~paper ~host json; json; files }

(* Host figures stay out of the JSON: one suffix per cell's row, in
   the form `make determinism` masks. *)
let load_host (p : Load.point) =
  (p.cell.label, Printf.sprintf "wall=%.2fs top_heap=%.0fMB" p.wall_s p.top_heap_mb)

let commit_host (p : Commit.point) =
  (p.cell.label, Printf.sprintf "wall=%.2fs" p.wall_s)

let all =
  [
    entry "t1" ~key:"t1_kernel" (fun ~quick ->
        output ~title:"T1: kernel performance (paper section 4.3)"
          ~paper:
            [
              ("context_switch_ms", "0.14 ms"); ("fault_zero_fill_ms", "1.5 ms");
              ("fault_data_ms", "0.629 ms");
            ]
          T1_kernel.(to_json (run ~samples:(if quick then 20 else 100) ())));
    entry "t2" ~key:"t2_network" (fun ~quick ->
        output ~title:"T2: networking (paper section 4.3)"
          ~paper:
            [
              ("eth_rtt_ms", "2.4 ms"); ("ratp_rtt_ms", "4.8 ms");
              ("page_ratp_ms", "11.9 ms"); ("page_ftp_ms", "70 ms");
              ("page_nfs_ms", "50 ms");
            ]
          T2_network.(to_json (run ~samples:(if quick then 10 else 50) ())));
    entry "t3" ~key:"t3_invocation" (fun ~quick ->
        output ~title:"T3: null object invocation (paper section 4.3)"
          ~paper:
            [
              ("warm_ms", "8 ms"); ("cold_ms", "103 ms");
              ("locality_avg_ms", "\"closer to the minimum\"");
            ]
          T3_invocation.(
            to_json (run ~invocations:(if quick then 50 else 200) ())));
    entry "f1" ~key:"f1_sort" (fun ~quick ->
        output ~title:"F1: distributed sort in ONE object (paper section 5.1)"
          ~paper:[ ("speedup", "achievable") ]
          F1_sort.(
            to_json (run ~elements:(if quick then 8_192 else 16_384) ())));
    entry "f2" ~key:"f2_consistency" (fun ~quick ->
        output
          ~title:
            "F2: consistency labels on one update, gcp commit cost vs span \
             (paper section 5.2.1)"
          ~paper:[ ("throughput_per_s", "s > lcp > gcp") ]
          F2_consistency.(to_json (run ~samples:(if quick then 9 else 30) ())));
    entry "f3" ~key:"f3_pet" (fun ~quick ->
        output
          ~title:
            "F3: PET resilience vs resources (paper section 5.2.2; compute \
             crashes p=0.45, data crashes p=0.15, mid-run)"
          ~paper:
            [
              ("completion_rate", "rises with k");
              ("mean_thread_ms", "rises with k");
            ]
          F3_pet.(to_json (run ~trials:(if quick then 8 else 25) ())));
    entry "fanout" ~aliases:[ "wf" ] ~key:"write_fault_fanout" (fun ~quick ->
        output ~title:"Write-fault fan-out: concurrent invalidation"
          ~paper:[ ("rtt_ms", "4.8 ms") ]
          Write_fault_fanout.(
            to_json (run ~sizes:(if quick then [ 1; 4; 8 ] else [ 1; 4; 8; 16 ]) ())));
    entry "batching" ~aliases:[ "pb" ] ~key:"page_batching" (fun ~quick ->
        output ~title:"Page batching: batched writeback (16-page segment)"
          Page_batching.(
            to_json (run ~flush_sizes:(if quick then [ 1; 16 ] else [ 1; 4; 16 ]) ())));
    entry "transport" ~aliases:[ "tr" ] ~key:"transport" (fun ~quick ->
        output ~title:"Transport: selective retransmission, same-node bypass"
          Transport.(
            to_json
              (run
                 ~losses:(if quick then [ 0; 5 ] else [ 0; 1; 5; 10 ])
                 ~sizes:
                   (if quick then [ 1400; 65536 ] else [ 1400; 8192; 65536 ])
                 ~calls:(if quick then 3 else 5)
                 ~invocations:(if quick then 20 else 50)
                 ())));
    entry "faults" (fun ~quick:_ ->
        output ~title:"Fault scenarios (deterministic; seed-reproducible)"
          (Faults.to_json (Faults.run_all ())));
    entry "membership" ~aliases:[ "mem" ] ~key:"membership" (fun ~quick ->
        output
          ~title:
            "Membership: kill k of n data servers mid-workload (reheal vs \
             replication factor)"
          Membership.(
            to_json
              (run
                 ~arms:(if quick then quick_arms else full_arms)
                 ~ops:(if quick then 32 else 48)
                 ())));
    entry "load" ~key:"load" (fun ~quick ->
        let points =
          Load.run ~cells:(if quick then Load.smoke_cells else Load.full_cells) ()
        in
        output
          ~title:
            "Open-loop name-service load (nodes x clients x rate; latency from \
             arrival to completion)"
          ~host:(List.map load_host points)
          (Load.to_json points));
    entry "commit" ~key:"commit" (fun ~quick ->
        let points =
          Commit.run ~cells:(if quick then Commit.smoke_cells else Commit.full_cells) ()
        in
        output
          ~title:
            "Commit pipeline: group-commit WAL vs force-per-record (closed \
             loop, conflict-free gcp transactions); crash recovery (kill \
             mid-commit, ARIES replay)"
          ~host:(List.map commit_host points)
          (Commit.to_json points (Commit.run_crash ())));
    entry "consistency" ~aliases:[ "cons" ] ~key:"consistency" (fun ~quick ->
        output
          ~title:"Consistency modes: one-copy vs release vs commutative (DESIGN §17)"
          Consistency.(
            to_json
              (run
                 ~copysets:(if quick then [ 2; 4 ] else [ 1; 2; 4; 8 ])
                 ~elements:(if quick then 2_048 else 4_096)
                 ~increments:(if quick then 16 else 32)
                 ())));
    entry "ablations" ~aliases:[ "ab" ] (fun ~quick:_ ->
        output
          ~title:
            "Ablations: wire speed, thread placement, frame cache, RaTP frame \
             loss"
          (Ablations.run ()));
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
        ignore (valid "obs_trace.json" (Obs.Export.validate_chrome r.chrome));
        ignore (valid "obs_metrics.json" (Obs.Export.parse r.registries_json));
        output
          ~title:
            "Traced load cell: self-time stages (one Chrome trace event \
             per span) and registry totals"
          ~host:[ ("cell", snd (load_host r.point)) ]
          ~files:
            [
              ("obs_trace.json", r.chrome); ("obs_metrics.json", r.registries_json);
            ]
          (Trace_run.to_json r));
    (* the roadmap-scale cell: 200 nodes, 1M invocations; latency in a
       streaming histogram so memory stays flat *)
    entry "load-xl" ~default:false (fun ~quick:_ ->
        let p = Load.run_cell Load.xl_cell in
        output ~title:"Open-loop name-service load, roadmap scale"
          ~host:[ load_host p ]
          (Load.to_json [ p ]));
  ]

let find id = List.find_opt (fun e -> e.id = id || List.mem id e.aliases) all
