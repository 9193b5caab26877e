(** Ethernet frames.

    The payload is an extensible variant: each protocol above the
    wire (RaTP, the FTP/NFS comparators) adds its own constructors,
    so the network layer stays ignorant of protocol contents while
    frames still carry structured data.  The [bytes] field is the
    simulated on-wire size, which is what timing is computed from. *)

type payload = ..
(** Protocols extend this with their packet types. *)

type payload += Raw of string
(** Opaque test payload. *)

type dst = Unicast of Address.t | Broadcast

type t = {
  src : Address.t;
  dst : dst;
  bytes : int;  (** total on-wire size including headers *)
  payload : payload;
}

val header_bytes : int
(** Simulated Ethernet header + CRC size (18 bytes). *)

val make : src:Address.t -> dst:dst -> payload_bytes:int -> payload -> t
(** Build a frame; [bytes] is [payload_bytes + header_bytes], clamped
    below by the 64-byte Ethernet minimum. *)

val none : t
(** A placeholder for a record's frame slot while it holds no frame; it
    is never sent. *)
