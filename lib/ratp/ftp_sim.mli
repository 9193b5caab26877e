(** A Unix-FTP-like comparator protocol.

    The paper (§4.3) compares an 8K page transfer over RaTP (11.9 ms)
    with Unix FTP (70 ms).  The difference is structural: FTP runs a
    chatty control dialogue (connect, USER, PASS, PORT, RETR) and then
    ships data in small stop-and-wait blocks, each synchronously
    acknowledged, with per-session server overhead.  This module
    reproduces that structure over the same simulated Ethernet so the
    comparison measures protocol shape, not implementation tricks. *)

val start_server :
  Net.Ethernet.t -> addr:Net.Address.t -> ?group:int -> unit -> unit
(** Attach a NIC at [addr] and serve fetches forever. *)

type client

val client : Net.Ethernet.t -> addr:Net.Address.t -> client
(** Attach a client NIC. *)

val fetch : client -> server:Net.Address.t -> bytes:int -> unit
(** Run a full FTP session from the current process, transferring
    [bytes] of data.  Returns when the transfer completes. *)
