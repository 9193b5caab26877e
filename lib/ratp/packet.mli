(** RaTP packets.

    A {e message transaction} is a send/reply pair identified by a
    transaction id (origin address + sequence number).  Large
    messages are fragmented to fit the Ethernet MTU; every fragment
    carries the transaction id and its index.  The [body] is an
    extensible variant so that each client of the transport (DSM, the
    object manager, the data servers...) ships structured OCaml
    values while sizes stay explicit for timing. *)

type body = ..

type body += Ping of string
(** Simple test/diagnostic body. *)

type body += Empty
(** No payload: acks, busy notifications, bitmap-less probes. *)

type body += Bitmap of bool array
(** Received-fragment bitmap carried by {!Probe} (the reply fragments
    the client already holds) and {!Nack} (the request fragments the
    server already holds).  [bit.(i)] is true when fragment [i] has
    been received; an empty array means "nothing received / state
    unknown".  On the wire it costs {!bitmap_bytes} of payload. *)

type tid = { origin : Net.Address.t; seq : int }

type kind =
  | Request
  | Reply
  | Ack
  | Busy
      (** server-to-client: the transaction is being processed; be
          patient (VMTP-style busy notification) *)
  | Probe
      (** client-to-server retransmit probe: "what are you missing?"
        Carries the client's received-reply bitmap so a server whose
        reply was partially lost resends only the missing reply
        fragments. *)
  | Nack
      (** server-to-client selective-retransmission request: carries
        the server's received-request bitmap so the client resends
        only the missing request fragments. *)

type t = {
  tid : tid;
  service : int;  (** server-side dispatch key *)
  kind : kind;
  frag : int;  (** fragment index, 0-based *)
  nfrags : int;  (** total fragments in this message *)
  total_size : int;  (** size in bytes of the whole message *)
  body : body;  (** full message body (carried on every fragment) *)
}

type Net.Frame.payload += Ratp of t

val header_bytes : int
(** RaTP header size added to every fragment. *)

val frag_bytes : frag_payload:int -> total_size:int -> int -> int
(** [frag_bytes ~frag_payload ~total_size i] is the payload size of
    fragment [i]. *)

val nfrags_of : frag_payload:int -> int -> int
(** Number of fragments needed for a message of the given size
    (at least 1). *)

val bitmap_bytes : int -> int
(** Wire size of an [n]-fragment bitmap: one bit per fragment,
    rounded up to whole bytes. *)
