type device_state = {
  mutable ewma_rate : float;     (* trained requests per kilotick *)
  mutable in_window : int;
  mutable window_start : int;    (* tick at window start *)
  mutable trained_windows : int;
}

type t = {
  devices : (string, device_state) Hashtbl.t;
  mutable alarms : int;
}

(* A window's request rate beyond this multiple of the trained mean is
   a spike. *)
let spike_factor = 8.0

(* Dropped IRQs one storm observation may report before it alarms. *)
let irq_drop_limit = 32

(* Port requests per rate window. *)
let window = 16

let create () =
  let t = { devices = Hashtbl.create 8; alarms = 0 } in
  let device_state name now =
    match Hashtbl.find_opt t.devices name with
    | Some s -> s
    | None ->
      let s = { ewma_rate = 0.0; in_window = 0; window_start = now; trained_windows = 0 } in
      Hashtbl.replace t.devices name s;
      s
  in
  let alarm severity reason =
    t.alarms <- t.alarms + 1;
    Detector.Alarm { severity; reason }
  in
  let observe obs =
    match obs with
    | Detector.Tamper { what } ->
      alarm Detector.Critical (Printf.sprintf "tamper evidence: %s" what)
    | Detector.Guest_fault what ->
      alarm Detector.Notice (Printf.sprintf "guest fault: %s" what)
    | Detector.Probe_activity { core; density } ->
      (* Timing-probe instruction mixes (rdcycle/clflush-heavy loops)
         are the signature of side-channel reconnaissance.  Futile on
         split hardware, but §3.1 wants introspection *attempts*
         surfaced. *)
      alarm Detector.Suspicious
        (Printf.sprintf "timing-probe instruction mix on core %d (density %.0f%%)"
           core (100.0 *. density))
    | Detector.Irq_storm { dropped } ->
      if dropped > irq_drop_limit then
        alarm Detector.Suspicious
          (Printf.sprintf "interrupt storm: %d doorbells throttled" dropped)
      else Detector.Clear
    | Detector.Port_request { device; now; _ } ->
      let s = device_state device now in
      s.in_window <- s.in_window + 1;
      if s.in_window >= window then begin
        let elapsed = max 1 (now - s.window_start) in
        let rate = 1000.0 *. float_of_int s.in_window /. float_of_int elapsed in
        s.in_window <- 0;
        s.window_start <- now;
        (* Train for a few windows before judging. *)
        if s.trained_windows < 3 then begin
          s.trained_windows <- s.trained_windows + 1;
          s.ewma_rate <-
            (if s.trained_windows = 1 then rate else (0.7 *. s.ewma_rate) +. (0.3 *. rate));
          Detector.Clear
        end
        else begin
          let spiky = s.ewma_rate > 0.0 && rate > spike_factor *. s.ewma_rate in
          let reason =
            Printf.sprintf "port-rate spike on %s (%.1f vs mean %.1f req/ktick)" device
              rate s.ewma_rate
          in
          s.ewma_rate <- (0.7 *. s.ewma_rate) +. (0.3 *. rate);
          if spiky then alarm Detector.Suspicious reason else Detector.Clear
        end
      end
      else Detector.Clear
    | Detector.Prompt _ | Detector.Output_token _ -> Detector.Clear
  in
  ({ Detector.name = "sys-anomaly"; observe }, t)

let port_rate t ~device =
  match Hashtbl.find_opt t.devices device with Some s -> s.ewma_rate | None -> 0.0

let alarms_raised t = t.alarms
