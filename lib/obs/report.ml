module Json = Guillotine_util.Json

type incident = {
  label : string;
  seed : int option;
  alert : Watchdog.alert;
  first_fault_at : float option;
  detection_latency_s : float option;
  faults : (float * string) list;
  window : Recorder.event list;
}

let build ~label ?seed ~alert ~recorder () =
  let faults =
    List.filter_map
      (fun (ev : Recorder.event) ->
        if ev.Recorder.kind = "fault.injected" then
          Some (ev.Recorder.at, ev.Recorder.detail)
        else None)
      (Recorder.events recorder)
  in
  let first_fault_at = match faults with [] -> None | (at, _) :: _ -> Some at in
  let detection_latency_s =
    match first_fault_at with
    | Some at when alert.Watchdog.raised_at >= at ->
      Some (alert.Watchdog.raised_at -. at)
    | _ -> None
  in
  {
    label;
    seed;
    alert;
    first_fault_at;
    detection_latency_s;
    faults;
    window =
      Recorder.window recorder ~around:alert.Watchdog.raised_at ~before:10.0
        ~after:5.0;
  }

let to_text i =
  let b = Buffer.create 1024 in
  let a = i.alert in
  let r = a.Watchdog.rule in
  Buffer.add_string b
    (Printf.sprintf "INCIDENT %s%s\n" i.label
       (match i.seed with Some s -> Printf.sprintf " (seed %d)" s | None -> ""));
  Buffer.add_string b
    (Printf.sprintf "alert            %s [%s]\n" r.Watchdog.rule_name
       (Watchdog.severity_string r.Watchdog.severity));
  if r.Watchdog.about <> "" then
    Buffer.add_string b (Printf.sprintf "about            %s\n" r.Watchdog.about);
  Buffer.add_string b
    (Printf.sprintf "metric           %s\n" r.Watchdog.metric);
  Buffer.add_string b
    (Printf.sprintf "raised at        %.3fs (value %g)\n" a.Watchdog.raised_at
       a.Watchdog.value);
  (match a.Watchdog.cleared_at with
  | Some c -> Buffer.add_string b (Printf.sprintf "cleared at       %.3fs\n" c)
  | None -> Buffer.add_string b "cleared at       still firing\n");
  (match i.first_fault_at with
  | Some at ->
    Buffer.add_string b (Printf.sprintf "first fault at   %.3fs\n" at)
  | None -> ());
  (match i.detection_latency_s with
  | Some l ->
    Buffer.add_string b (Printf.sprintf "detection        %.3fs after injection\n" l)
  | None -> ());
  if i.faults <> [] then begin
    Buffer.add_string b "faults injected:\n";
    List.iter
      (fun (at, desc) ->
        Buffer.add_string b (Printf.sprintf "  t=%.3fs %s\n" at desc))
      i.faults
  end;
  Buffer.add_string b
    (Printf.sprintf "flight recorder (%d events around the alert):\n"
       (List.length i.window));
  List.iter
    (fun ev ->
      Buffer.add_string b ("  " ^ Recorder.event_to_string ev ^ "\n"))
    i.window;
  Buffer.contents b

let to_json i =
  let b = Buffer.create 2048 in
  let a = i.alert in
  let r = a.Watchdog.rule in
  let fopt = function
    | Some f -> Printf.sprintf "%.6f" f
    | None -> "null"
  in
  Buffer.add_string b
    (Printf.sprintf "{\"label\":\"%s\",\"seed\":%s" (Json.escape i.label)
       (match i.seed with Some s -> string_of_int s | None -> "null"));
  Buffer.add_string b
    (Printf.sprintf
       ",\"alert\":{\"rule\":\"%s\",\"severity\":\"%s\",\"metric\":\"%s\",\"raised_at\":%.6f,\"value\":%.6f,\"cleared_at\":%s}"
       (Json.escape r.Watchdog.rule_name)
       (Watchdog.severity_string r.Watchdog.severity)
       (Json.escape r.Watchdog.metric)
       a.Watchdog.raised_at a.Watchdog.value
       (fopt a.Watchdog.cleared_at));
  Buffer.add_string b
    (Printf.sprintf ",\"first_fault_at\":%s,\"detection_latency_s\":%s"
       (fopt i.first_fault_at)
       (fopt i.detection_latency_s));
  Buffer.add_string b ",\"faults\":[";
  List.iteri
    (fun n (at, desc) ->
      if n > 0 then Buffer.add_string b ",";
      Buffer.add_string b
        (Printf.sprintf "{\"at\":%.6f,\"fault\":\"%s\"}" at (Json.escape desc)))
    i.faults;
  Buffer.add_string b "],\"window\":[";
  List.iteri
    (fun n (ev : Recorder.event) ->
      if n > 0 then Buffer.add_string b ",";
      Buffer.add_string b
        (Printf.sprintf
           "{\"at\":%.6f,\"seq\":%d,\"request\":%s,\"source\":\"%s\",\"kind\":\"%s\",\"detail\":\"%s\"}"
           ev.Recorder.at ev.Recorder.seq
           (match ev.Recorder.request with
           | Some r -> string_of_int r
           | None -> "null")
           (Json.escape ev.Recorder.source)
           (Json.escape ev.Recorder.kind)
           (Json.escape ev.Recorder.detail)))
    i.window;
  Buffer.add_string b "]}";
  Buffer.contents b
