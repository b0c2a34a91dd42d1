module Engine = Guillotine_sim.Engine
module Prng = Guillotine_util.Prng

type spec = { rate : float; duration : float; sessions : int }

let default_spec = { rate = 20.0; duration = 60.0; sessions = 8 }

(* Mean prompt and output lengths, tokens. *)
let prompt_mean = 64
let output_mean = 32

(* Positive integer around the mean: mean/2 + U(0, mean). *)
let length_around prng mean = max 1 ((mean / 2) + Prng.int prng (max 1 mean))

let drive ~engine ~service ~prng spec =
  if spec.rate <= 0.0 || spec.duration <= 0.0 then
    invalid_arg "Workload.drive: rate and duration must be positive";
  let next_id = ref 0 in
  let rec arrivals at =
    if at <= spec.duration then begin
      ignore
        (Engine.schedule_at engine ~at (fun () ->
             let id = !next_id in
             incr next_id;
             let request =
               {
                 Service.id;
                 session = Prng.int prng spec.sessions;
                 prompt_tokens = length_around prng prompt_mean;
                 output_tokens = length_around prng output_mean;
               }
             in
             ignore (Service.submit service request)));
      arrivals (at +. Prng.exponential prng spec.rate)
    end
  in
  arrivals (Engine.now engine +. Prng.exponential prng spec.rate)
