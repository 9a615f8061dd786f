"""Remote endpoint adapter tests against a local threaded HTTP stub."""

from __future__ import annotations

import json
import threading
import time
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from ecdrive import (
    MODES,
    Action,
    EndpointConfig,
    NoDecisionFound,
    OffloadConfig,
    RemoteUnavailable,
    remote_decide,
    run_episode,
    run_episodes,
)
from ecdrive import orchestrator, policies

from scenarios import obstacle_zone_config, obstacle_zone_injections, reference_scene


class _StubHandler(BaseHTTPRequestHandler):
    reply_text = "Decision: keep current speed."
    sleep_s = 0.0
    requests_seen: list[dict] = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(
            {"path": self.path, "body": body, "auth": self.headers.get("Authorization")}
        )
        if type(self).sleep_s:
            time.sleep(type(self).sleep_s)
        payload = {
            "choices": [{"message": {"role": "assistant", "content": type(self).reply_text}}]
        }
        data = json.dumps(payload).encode()
        try:
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)
        except OSError:
            pass  # client already gave up (timeout tests)

    def log_message(self, *args):
        pass


@pytest.fixture()
def stub_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _StubHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _StubHandler.reply_text = "Decision: keep current speed."
    _StubHandler.sleep_s = 0.0
    _StubHandler.requests_seen = []
    yield f"http://127.0.0.1:{server.server_address[1]}"
    server.shutdown()
    server.server_close()


class TestRemoteDecide:
    def test_stub_round_trip(self, stub_server):
        endpoint = EndpointConfig(base_url=stub_server, model="stub-model", timeout_s=5.0)
        decision = remote_decide(reference_scene(), replace(endpoint, role="Cloud"))
        assert decision.action is Action.KEEP
        assert decision.source == "Remote"
        assert decision.confidence == 1.0
        assert decision.rationale == ("Decision: keep current speed.",)

    def test_request_shape_and_prompt_contract(self, stub_server, monkeypatch):
        monkeypatch.setenv("EC_DRIVE_API_KEY", "sk-test")
        endpoint = EndpointConfig(base_url=stub_server, model="stub-model", timeout_s=5.0)
        remote_decide(reference_scene(), replace(endpoint, role="Edge"))
        seen = _StubHandler.requests_seen[-1]
        assert seen["path"] == "/chat/completions"
        assert seen["auth"] == "Bearer sk-test"
        body = seen["body"]
        assert body["model"] == "stub-model"
        assert body["temperature"] == 0
        assert [m["role"] for m in body["messages"]] == ["system", "user"]
        assert "rightmost lane of a four-lane road" in body["messages"][1]["content"]

    @pytest.mark.parametrize("role", ["Edge", "Cloud"])
    def test_system_prompt_is_the_endpoints_role(self, stub_server, role):
        endpoint = EndpointConfig(base_url=stub_server, timeout_s=5.0, role=role)
        remote_decide(reference_scene(), endpoint)
        system = _StubHandler.requests_seen[-1]["body"]["messages"][0]
        assert system == {"role": "system", "content": policies._SYSTEM_PROMPTS[role]}

    @pytest.mark.parametrize("fields", [{"role": "cloud"}, {"timeout_s": 0.0},
                                        {"base_url": "file:///tmp"}])
    def test_invalid_endpoint_raises_before_any_request(self, stub_server, fields):
        endpoint = replace(EndpointConfig(base_url=stub_server, timeout_s=5.0), **fields)
        with pytest.raises(ValueError, match=f"^{next(iter(fields))} must be"):
            remote_decide(reference_scene(), endpoint)
        assert _StubHandler.requests_seen == []

    def test_reply_without_decision_raises(self, stub_server):
        _StubHandler.reply_text = "The weather is lovely today."
        endpoint = EndpointConfig(base_url=stub_server, timeout_s=5.0)
        with pytest.raises(NoDecisionFound):
            remote_decide(reference_scene(), endpoint)

    def test_null_content_is_unavailable(self, stub_server):
        _StubHandler.reply_text = None
        endpoint = EndpointConfig(base_url=stub_server, timeout_s=5.0)
        with pytest.raises(RemoteUnavailable) as excinfo:
            remote_decide(reference_scene(), endpoint)
        assert not excinfo.value.timed_out

    def test_timeout_raises_remote_unavailable(self, stub_server):
        _StubHandler.sleep_s = 1.0
        endpoint = EndpointConfig(base_url=stub_server, timeout_s=0.2)
        with pytest.raises(RemoteUnavailable) as excinfo:
            remote_decide(reference_scene(), endpoint)
        assert excinfo.value.timed_out

    def test_wrapped_timeout_is_flagged(self, monkeypatch):
        # urlopen reports a connect timeout as a URLError around the TimeoutError
        import urllib.error
        import urllib.request

        def fake_urlopen(request, timeout):
            raise urllib.error.URLError(TimeoutError("timed out"))

        monkeypatch.setattr(urllib.request, "urlopen", fake_urlopen)
        endpoint = EndpointConfig(base_url="http://127.0.0.1:9", timeout_s=0.2)
        with pytest.raises(RemoteUnavailable) as excinfo:
            remote_decide(reference_scene(), endpoint)
        assert excinfo.value.timed_out

    def test_unreachable_endpoint(self):
        endpoint = EndpointConfig(base_url="http://127.0.0.1:9", timeout_s=0.5)
        with pytest.raises(RemoteUnavailable) as excinfo:
            remote_decide(reference_scene(), endpoint)
        assert not excinfo.value.timed_out


def _near_block(steps: int):
    from ecdrive import DriftInjection

    return (
        DriftInjection(kind="NewObstacle", start_step=0, end_step=steps,
                       lane=0, position=150.0, extent_m=20.0),
    )


class TestOrchestratorFallback:
    def _config(self, **kw):
        defaults = dict(mode="Collaborative", tau=0.0, n_ref=40, window=10,
                        edge_ms=0.0, cloud_ms=10.0, rtt_ms=0.0)
        defaults.update(kw)
        return OffloadConfig(**defaults)

    def test_remote_cloud_answers_are_executed(self, stub_server):
        _StubHandler.reply_text = "I will slow down."
        endpoint = EndpointConfig(base_url=stub_server, timeout_s=5.0, role="Cloud")
        trace = run_episode(
            obstacle_zone_config(), _near_block(25), self._config(),
            seed=0, steps=25, endpoint=endpoint,
        )
        offloaded = [r for r in trace.records if r.offloaded]
        assert offloaded
        assert all(r.cloud_decision.source == "Remote" for r in offloaded)
        assert all(r.cloud_decision.action is Action.DECELERATE for r in offloaded)

    def test_parse_failure_falls_back_to_local_cloud(self, stub_server):
        _StubHandler.reply_text = "no decision phrase here"
        endpoint = EndpointConfig(base_url=stub_server, timeout_s=5.0, role="Cloud")
        trace = run_episode(
            obstacle_zone_config(), obstacle_zone_injections(60), self._config(),
            seed=0, steps=60, endpoint=endpoint,
        )
        offloaded = [r for r in trace.records if r.offloaded]
        assert offloaded
        # the local cloud policy stands in, and the episode still avoids the block
        assert all(r.cloud_decision.source == "Cloud" for r in offloaded)
        assert trace.summary.collision_count == 0

    def test_null_content_falls_back_to_local_cloud(self, stub_server):
        _StubHandler.reply_text = None
        endpoint = EndpointConfig(base_url=stub_server, timeout_s=5.0, role="Cloud")
        trace = run_episode(
            obstacle_zone_config(), _near_block(14), self._config(),
            seed=0, steps=14, endpoint=endpoint,
        )
        offloaded = [r for r in trace.records if r.offloaded]
        assert offloaded
        assert all(r.cloud_decision.source == "Cloud" for r in offloaded)

    def test_timeout_fallback_records_timeout_latency(self, stub_server):
        _StubHandler.sleep_s = 0.6
        endpoint = EndpointConfig(base_url=stub_server, timeout_s=0.25, role="Cloud")
        trace = run_episode(
            obstacle_zone_config(), _near_block(14), self._config(),
            seed=0, steps=14, endpoint=endpoint,
        )
        offloaded = [r for r in trace.records if r.offloaded]
        assert offloaded
        # the timeout plus the configured cost of the local cloud policy
        # that stands in: cloud_ms is 10, edge_ms and rtt_ms are 0
        assert all(r.latency_ms == pytest.approx(260.0) for r in offloaded)
        assert all(r.cloud_decision.source == "Cloud" for r in offloaded)

    def test_illegal_remote_action_is_replaced_by_keep(self, stub_server):
        # ego starts in the rightmost lane; the stub insists on changing right
        _StubHandler.reply_text = "Please change lane to the right."
        endpoint = EndpointConfig(base_url=stub_server, timeout_s=5.0, role="Cloud")
        trace = run_episode(
            obstacle_zone_config(), _near_block(30), self._config(),
            seed=0, steps=30, endpoint=endpoint,
        )
        offloaded = [r for r in trace.records if r.offloaded]
        assert offloaded
        first = offloaded[0]
        assert first.cloud_decision.action is Action.LANE_CHANGE_RIGHT
        assert first.executed_action is Action.KEEP


    @pytest.mark.parametrize("role", ["Edge", "Cloud"])
    def test_lockstep_episodes_each_make_their_own_calls(self, stub_server, role):
        endpoint = EndpointConfig(base_url=stub_server, timeout_s=5.0, role=role)
        configs = [self._config(mode=mode) for mode in MODES]
        traces = run_episodes(obstacle_zone_config(), _near_block(14), configs, seed=0,
                              steps=14, endpoint=endpoint)
        counts = []
        for trace in traces:
            if role == "Edge":
                decisions = [r.edge_decision for r in trace.records]
            else:
                decisions = [r.cloud_decision for r in trace.records if r.offloaded]
            assert all(d.source == "Remote" for d in decisions)
            counts.append(len(decisions))
        # CloudOnly asks on every step, whichever the role
        assert counts[MODES.index("CloudOnly")] == 14
        assert len(_StubHandler.requests_seen) == sum(counts)

    @pytest.mark.parametrize("modes", [("EdgeOnly",), MODES], ids=["alone", "lockstep"])
    def test_a_remote_edge_never_takes_the_burn_in_decision(
        self, stub_server, monkeypatch, modes
    ):
        # with no injection the episodes start on the burn-in's scenes and
        # take over its features, but each step asks the remote edge itself
        endpoint = EndpointConfig(base_url=stub_server, timeout_s=5.0, role="Edge")
        configs = [self._config(mode=mode) for mode in modes]
        burns = []
        real = orchestrator._burn_in
        monkeypatch.setattr(orchestrator, "_burn_in",
                            lambda *args: burns.append(real(*args)) or burns[-1])
        traces = run_episodes(obstacle_zone_config(), (), configs, seed=0, steps=14,
                              endpoint=endpoint)
        ((features, _),) = burns
        for trace in traces:
            assert trace.records[0].feature is features[0]
            assert all(r.edge_decision.source == "Remote" for r in trace.records)
        assert len(_StubHandler.requests_seen) == 14 * len(configs)


class TestEndpointConfig:
    @pytest.mark.parametrize("fields, name", [
        ({"base_url": 5}, "base_url"),
        ({"base_url": ""}, "base_url"),
        ({"base_url": "http://localhost:9", "model": None}, "model"),
        ({"base_url": "http://localhost:9", "timeout_s": float("nan")}, "timeout_s"),
        ({"base_url": "http://localhost:9", "timeout_s": float("inf")}, "timeout_s"),
        ({"base_url": "http://localhost:9", "timeout_s": -1.0}, "timeout_s"),
        ({"base_url": "http://localhost:9", "timeout_s": "10"}, "timeout_s"),
        ({"base_url": "http://localhost:9", "role": "cloud"}, "role"),
        # not http(s), no scheme, no host: such a URL never reaches a model
        ({"base_url": "file:///dir"}, "base_url"),
        ({"base_url": "localhost:8000"}, "base_url"),
        ({"base_url": "http://"}, "base_url"),
        ({"base_url": "http://:8000"}, "base_url"),
        ({"base_url": "http://[::1"}, "base_url"),
        ({"base_url": "http://localhost:port"}, "base_url"),
        ({"base_url": "http://localhost:9", "timeout_s": 1e300}, "timeout_s"),
        # the request path is appended to the URL's text
        ({"base_url": "http://localhost:9/v1?key=abc"}, "base_url"),
        ({"base_url": "http://localhost:9/v1#top"}, "base_url"),
        ({"base_url": "http://localhost:9/v1?"}, "base_url"),
    ])
    def test_invalid_fields_rejected(self, fields, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            EndpointConfig(**fields).validate()

    def test_defaults_are_valid(self):
        EndpointConfig(base_url="http://localhost:9").validate()
        EndpointConfig(base_url="http://localhost:9", timeout_s=2, role="Edge").validate()
        EndpointConfig(base_url="https://example.com/v1",
                       timeout_s=threading.TIMEOUT_MAX).validate()

    def test_run_episode_rejects_an_invalid_endpoint(self):
        with pytest.raises(ValueError, match="base_url"):
            run_episode(obstacle_zone_config(), (), OffloadConfig(mode="EdgeOnly"),
                        seed=0, steps=1, endpoint=EndpointConfig(base_url=5))
