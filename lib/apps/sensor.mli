(** An active sensor object (the paper's "objects can be active"
    box).

    The object encapsulates a sensing device: a daemon process inside
    it samples the (simulated) device periodically into a persistent
    ring buffer, and invocations read the gathered data without
    knowing anything about the device or even where it is.  The
    daemon can also notify another object when a reading crosses a
    threshold — the event-notification pattern the paper describes. *)

val register :
  Clouds.Object_manager.t ->
  ?interval:Sim.Time.span ->
  ?threshold:int ->
  unit ->
  unit
(** Load the sensor class.  [interval] is the sampling period
    (default 50 ms); readings above [threshold] (default 90) are
    reported to the alarm object if one is configured. *)

val create :
  Clouds.Object_manager.t -> ?alarm:Ra.Sysname.t -> unit -> Ra.Sysname.t
(** New sensor; [alarm] is an object with a "notify" entry that
    receives [Pair (sensor_sysname, reading)]. *)

val latest : Clouds.Object_manager.t -> Ra.Sysname.t -> int option
val sample_count : Clouds.Object_manager.t -> Ra.Sysname.t -> int
val history : Clouds.Object_manager.t -> Ra.Sysname.t -> n:int -> int list
