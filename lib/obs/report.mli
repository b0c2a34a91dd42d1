(** Incident reporter: correlate a firing alert with the surrounding
    flight-recorder window and the observed fault-injection schedule
    into one deterministic, renderable record.

    Everything in a report derives from sim-deterministic state (no
    wall clock, no allocation order), so same-seed runs render
    byte-identical text and JSON — the replay contract the fault plane
    pins extends to forensics. *)

type incident = {
  label : string;                    (** scenario / deployment name *)
  seed : int option;
  alert : Watchdog.alert;            (** the triggering alert *)
  first_fault_at : float option;     (** first [fault.injected] event *)
  detection_latency_s : float option;
      (** alert raise time minus first injection, when both exist and
          the alert is not earlier than the fault *)
  faults : (float * string) list;    (** injected faults: time, description *)
  window : Recorder.event list;      (** forensic slice around the raise *)
}

val build :
  label:string ->
  ?seed:int ->
  alert:Watchdog.alert ->
  recorder:Recorder.t ->
  unit ->
  incident
(** The forensic window spans 10 seconds before the alert's raise to 5
    after.  The fault schedule and [first_fault_at] are read
    from the recorder's [fault.injected] events, so whatever the
    injector actually applied — not merely planned — is what the
    report correlates against. *)

val to_text : incident -> string
(** Multi-line human-readable report. *)

val to_json : incident -> string
(** Single-line JSON object. *)
