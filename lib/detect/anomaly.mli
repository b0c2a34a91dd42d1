(** System-level anomaly detector over the hypervisor's observations.

    The weight-level detectors need model-specific knowledge; this one
    needs none.  It watches the signals Guillotine can always see —
    port-request rates, LAPIC drops, guest faults, tamper reports — and
    raises alarms on hard evidence (tamper, faults, interrupt storms)
    and on soft evidence (a port-request rate far above the trained
    baseline, the signature of exfiltration or device abuse).

    Rate detection: per-device exponentially-weighted moving average of
    requests per window of 16 port requests; a window whose rate is
    beyond 8 times the trained mean is suspicious. *)

type t

val create : unit -> Detector.t * t
(** Spike 8x, 32 dropped IRQs per storm observation, windows of 16 port
    requests (the first three train the mean).  Returns the pluggable
    detector and a handle for introspection. *)

val port_rate : t -> device:string -> float
(** Trained mean requests-per-window for a device (0 if unseen). *)

val alarms_raised : t -> int
