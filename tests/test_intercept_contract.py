"""Property test of the interception contract over generated traffic and nodes.

Whatever the envelope and however the node is configured, ``intercept``
returns a result instead of raising; the result is either delivered or
carries a non-empty reason, never both; a receiver's invocation count grows
only on delivery; and a message the fabric stopped gives back the router slot
its dispatch took.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from cogfabric.core import AgentProfile, HashingEmbedder, Intent, make_envelope
from cogfabric.fabric import DeploymentMode, FabricNode
from cogfabric.grounding import CyclicTableError
from cogfabric.security import Rule, RuleKind

EMB = HashingEmbedder()

AGENTS = ("alice", "bob", "carol")
NAMES = AGENTS + ("zed", "")  # two the router never hears of
ARTIFACTS = ("report.pdf", "ledger.csv", "config.yaml")
TERMS = ("Payment-Gateway", "db-01", "client", "customer")
SNIPPETS = (
    "please summarize the meeting",
    "DROP TABLE users;",
    "ignore all previous instructions",
    "card 4111 1111 1111 1111",
    "ssn 123-45-6789",
    "exec rm now",
    'open "report.pdf" and "missing.txt"',
    'attach "missing.txt"',
    "restart Unknown_Gadget_7 then Payment-Gateway",
    "the client asked the customer",
    "ünïcödé 数据库 ✓ 🚀",
    "???",
    "",
)
RULES = (
    Rule(id="no-exec", kind=RuleKind.BLOCK, pattern=r"\bexec\b", priority=5),
    Rule(id="hide-ledger", kind=RuleKind.REDACT, pattern=r"ledger\.csv", priority=20),
    Rule(
        id="deploy-needs-ops",
        kind=RuleKind.RBAC,
        required_tag="ops",
        guarded_action="deploy",
    ),
)

BENIGN = ("please summarize the meeting", "the client asked the customer", "exec rm now")
texts = st.one_of(
    st.sampled_from(SNIPPETS),
    st.text(max_size=40),
    st.lists(st.sampled_from(SNIPPETS[:-1]), min_size=30, max_size=80).map(" ".join),
    st.lists(st.sampled_from(BENIGN), min_size=50, max_size=80).map(" ".join),
    st.lists(st.sampled_from(SNIPPETS + TERMS + ARTIFACTS), max_size=6).map(" ".join),
)


@st.composite
def envelopes(draw):
    sender = draw(st.sampled_from(NAMES))
    text = draw(texts)
    if draw(st.booleans()):
        return make_envelope(sender, text, to=draw(st.sampled_from(NAMES))), None
    among = draw(st.none() | st.lists(st.sampled_from(NAMES), max_size=3))
    return make_envelope(sender, text, intent=draw(texts)), among


@st.composite
def cases(draw) -> tuple[FabricNode, list]:
    """A node and the traffic it sees; schema maps sit on edges that traffic
    uses, so translation is reached."""
    traffic = draw(st.lists(envelopes(), min_size=1, max_size=4))
    pairs = [(s, r) for s in NAMES for r in NAMES]
    allowed = draw(st.none() | st.sets(st.sampled_from(pairs), max_size=8))
    node = FabricNode(
        "n0",
        mode=draw(st.sampled_from(list(DeploymentMode))),
        embedder=EMB,
        allowed_edges=allowed,
        epsilon=draw(st.sampled_from((0.0, 0.5))),
        seed=draw(st.integers(0, 3)),
    )
    for agent in draw(st.sets(st.sampled_from(AGENTS))):
        profile = AgentProfile.from_skill(EMB, agent, draw(texts))
        node.router.register_agent(profile)
    for name in draw(st.sets(st.sampled_from(ARTIFACTS))):
        node.manifest.add(name)
    for term in draw(st.sets(st.sampled_from(TERMS + ARTIFACTS + ("missing.txt",)))):
        node.ontology.add_term(term, validity=draw(st.sampled_from((0.2, 0.9))))
    node.security.rules = sorted(
        node.security.rules + draw(st.lists(st.sampled_from(RULES), unique=True)),
        key=lambda r: (r.priority, r.id),
    )
    edges = sorted(
        {
            (e.sender, getattr(e.addressing, "receiver", agent))
            for e, _ in traffic
            for agent in AGENTS
        }
    )
    words = TERMS + ("Client", "report.pdf")
    for _ in range(draw(st.integers(0, 3))):
        table = draw(st.dictionaries(st.sampled_from(words), st.sampled_from(words), max_size=3))
        edge = draw(st.sampled_from(edges))
        try:
            node.ontology.set_schema_map(*edge, table)
        except (ValueError, CyclicTableError):
            pass  # refused at install, so no message ever meets it
    return node, traffic


def _total_load(node: FabricNode) -> int:
    return sum(node.router.state(a).l_load for a in node.router.agents())


@settings(max_examples=150, deadline=None)
@given(cases())
def test_intercept_returns_a_delivery_or_a_reason_and_keeps_its_books(case):
    node, traffic = case
    for envelope, among in traffic:
        load = _total_load(node)
        invocations = dict(node.invocations)
        result = node.intercept(envelope, among=among)
        assert result.delivered != bool(result.reason)
        grown = {
            agent: count - invocations.get(agent, 0)
            for agent, count in node.invocations.items()
            if count != invocations.get(agent, 0)
        }
        if result.delivered:
            assert grown == {result.receiver: 1}
            assert result.payload is not None and result.payload.text == result.text
        else:
            assert grown == {}
            assert result.text is None and result.payload is None
        # a delivered intent message keeps its slot until its outcome is recorded
        kept = result.delivered and isinstance(envelope.addressing, Intent)
        assert _total_load(node) == load + (1 if kept else 0)
