module Gpu = Guillotine_devices.Gpu
module Ringbuf = Guillotine_devices.Ringbuf
module Toymodel = Guillotine_model.Toymodel
module Vocab = Guillotine_model.Vocab
module Steering = Guillotine_detect.Steering

type t = {
  hv : Hypervisor.t;
  port : Hypervisor.port_id;
  mutable loaded : bool;
  mutable round_trips : int;
}

let create hv ~port () = { hv; port; loaded = false; round_trips = 0 }

(* One request/response round-trip over the port's rings. *)
let transact t request =
  match Ringbuf.push (Hypervisor.request_ring t.hv t.port) request with
  | Error e -> Error ("request ring: " ^ e)
  | Ok () ->
    Hypervisor.doorbell t.hv t.port;
    Hypervisor.run t.hv ~quantum:100 ~rounds:3;
    t.round_trips <- t.round_trips + 1;
    (match Ringbuf.pop (Hypervisor.response_ring t.hv t.port) with
    | Some (Ok resp) when Array.length resp >= 1 && resp.(0) = 0L ->
      Ok (Array.sub resp 1 (Array.length resp - 1))
    | Some (Ok resp) when Array.length resp >= 1 ->
      Error (Printf.sprintf "device status %Ld" resp.(0))
    | Some (Ok _) | Some (Error _) -> Error "malformed completion"
    | None -> Error "no completion (port severed?)")

(* Ring slots hold 20 words: [op; addr] + up to 17 weight words. *)
let chunk_words = 17

let load_weights t model =
  let vocab = Vocab.size in
  let total = Toymodel.weights_words model in
  (* The model-side runtime reads its weight rows out of model DRAM and
     pushes them through its own port, chunk by chunk. *)
  let rec go offset =
    if offset >= total then begin
      t.loaded <- true;
      Ok ()
    end
    else begin
      let n = min chunk_words (total - offset) in
      let words =
        Array.init n (fun i ->
            let idx = offset + i in
            let row = idx / vocab and col = idx mod vocab in
            Int64.of_int
              (Guillotine_memory.Dram.read_int
                 (Hypervisor.machine t.hv |> Guillotine_machine.Machine.model_dram)
                 (Toymodel.row_base model row + col)))
      in
      let request =
        Array.append [| Int64.of_int Gpu.op_h2d; Int64.of_int offset |] words
      in
      match transact t request with
      | Error e -> Error e
      | Ok _ -> go (offset + n)
    end
  in
  go 0

type generation = {
  tokens : int list;
  broken : bool;
  port_round_trips : int;
  interventions : int;
}

let generate t ?(defence = Inference.No_defence) ~prompt ~max_tokens () =
  if not t.loaded then Error "weights not loaded"
  else begin
    match List.rev prompt with
    | [] ->
      Ok { tokens = []; broken = false; port_round_trips = 0; interventions = 0 }
    | last :: _ ->
      let vocab = Vocab.size in
      let started = t.round_trips in
      let safe_token =
        match Vocab.token_of_word "answer" with Some tk -> tk | None -> 0
      in
      let interventions = ref 0 in
      let rec step current acc produced =
        if produced >= max_tokens then
          Ok
            {
              tokens = List.rev acc;
              broken = false;
              port_round_trips = t.round_trips - started;
              interventions = !interventions;
            }
        else begin
          (* The mediation point sees the row index before launching the
             kernel: circuit breaking refuses harmful-row launches
             outright. *)
          if defence = Inference.Circuit_breaking && Vocab.is_harmful current then begin
            incr interventions;
            Ok
              {
                tokens = List.rev acc;
                broken = true;
                port_round_trips = t.round_trips - started;
                interventions = !interventions;
              }
          end
          else begin
            let request =
              [| Int64.of_int Gpu.op_argmax; Int64.of_int (current * vocab);
                 Int64.of_int vocab |]
            in
            match transact t request with
            | Error e -> Error e
            | Ok payload ->
              if Array.length payload < 1 then Error "empty argmax result"
              else begin
                let candidate = Int64.to_int payload.(0) in
                let next =
                  match defence with
                  | Inference.Steering when Vocab.is_harmful candidate ->
                    incr interventions;
                    safe_token
                  | Inference.Circuit_breaking when Vocab.is_harmful candidate ->
                    candidate (* handled below *)
                  | _ -> candidate
                in
                if defence = Inference.Circuit_breaking && Vocab.is_harmful candidate
                then begin
                  incr interventions;
                  Ok
                    {
                      tokens = List.rev acc;
                      broken = true;
                      port_round_trips = t.round_trips - started;
                      interventions = !interventions;
                    }
                end
                else step next (next :: acc) (produced + 1)
              end
          end
        end
      in
      step last [] 0
  end
