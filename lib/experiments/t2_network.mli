(** Experiment T2 — networking (paper §4.3 ¶3).

    Paper figures: raw Ethernet round trip (72-byte message) 2.4 ms;
    RaTP reliable round trip 4.8 ms; reliable transfer of one 8K page
    11.9 ms with RaTP against 70 ms with Unix FTP and 50 ms with
    NFS. *)

type result = {
  eth_rtt_ms : float;
  ratp_rtt_ms : float;
  page_ratp_ms : float;
  page_ftp_ms : float;
  page_nfs_ms : float;
  samples : int;
}

val run : ?samples:int -> unit -> result

val to_json : result -> Obs.Export.json
