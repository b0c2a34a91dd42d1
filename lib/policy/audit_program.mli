(** The regulator's in-person audit program (§3.5): scheduled physical
    inspections of a Guillotine site — tamper-evidence of the hardware
    enclosures, verification that no {e new} hardware has appeared (a
    model-initiated social-engineering tell), and maintenance state of
    the decapitation/immolation mechanisms.

    Runs on the discrete-event engine; each audit samples the site's
    ground-truth state (provided by callbacks) and files a report. *)

type finding =
  | Enclosure_tamper of string
  | Unexpected_hardware of string
  | Kill_switch_unmaintained of string

val finding_to_string : finding -> string

type report = {
  at : float;
  findings : finding list;
  passed : bool;
}

type site_probe = {
  enclosure_intact : unit -> bool;
  hardware_inventory : unit -> string list;
      (** serial numbers present at audit time *)
  kill_switches_tested : unit -> bool;
}

type t

val create :
  engine:Guillotine_sim.Engine.t ->
  probe:site_probe ->
  expected_inventory:string list ->
  cadence:float ->
  ?on_report:(report -> unit) ->
  unit ->
  t
(** Schedules recurring audits every [cadence] sim-seconds. *)

val reports : t -> report list
val last_passed_at : t -> float option
val stop : t -> unit
